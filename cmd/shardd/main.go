// Command shardd is a standalone shard worker: one serve.Server —
// sessions, model cache, background learners, the whole self-learning
// loop — wrapped in the cluster wire protocol and exposed over TCP.
// A serving front end (cmd/loadgen -cluster host:port,...) routes
// patients across N shardd processes by rendezvous hashing; each shardd
// owns its patients' sessions and streams alarm/retrain/eviction/shed
// events back to every connected client.
//
// The shard's own admission policy defaults to block-forever: the read
// loop stalling on a full queue is the cluster's flow control (the TCP
// window fills, and the client-side admission policy — where drop/shed
// decisions belong — takes over). Give each shardd its own -store
// directory to persist detectors across restarts; point two shardds at
// shared storage only if they can never own the same patient.
//
// With -peers (the full fleet address list) the shard replicates every
// checkpoint it saves to the next -replicas shards in each patient's
// rendezvous order — the same order the front end routes by — so the
// shard a patient fails over to already holds their detector and the
// patient resumes warm at the same model version.
//
// Configuration must agree with the front end where it matters: -rate
// must match the client's replay rate, the wire protocol version is
// checked in the connection handshake, and the -peers strings must be
// byte-identical to the front end's -cluster list.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	ossignal "os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"selflearn/internal/cluster"
	"selflearn/internal/fault"
	"selflearn/internal/rt"
	"selflearn/internal/serve"
	"selflearn/internal/signal"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7461", "TCP address to serve the shard protocol on")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "serving worker (shard) count inside this process")
	learners := flag.Int("learners", 2, "background retraining workers")
	queue := flag.Int("queue", 256, "per-worker queue depth")
	rate := flag.Float64("rate", 256, "sampling rate in Hz (must match the front end)")
	history := flag.Duration("history", time.Hour, "feature history buffered per session for a-posteriori labeling")
	avgSeizure := flag.Duration("avg-seizure", 25*time.Second, "expert average seizure duration W for the labeling algorithm")
	admission := flag.String("admission", "block", "admission policy on full worker queues: drop, block or shed")
	quality := flag.Bool("quality", false, "reject low-quality sample batches (flatline/clipped channels) before classification")
	refractory := flag.Duration("refractory", 0, "alarm hold-off after a raised alarm (0 = detector default; loadgen's matrix expects 30s)")
	deadline := flag.Duration("deadline", 0, "queue-space wait for -admission block (0 = wait forever: socket backpressure)")
	storeDir := flag.String("store", "", "model checkpoint directory (persists detectors across restarts); empty = in-memory only")
	eventBuffer := flag.Int("events", 4096, "event hub buffer before a lagging consumer drops events")
	peers := flag.String("peers", "", "comma-separated fleet addresses (every shardd, including this one) enabling checkpoint replication")
	advertise := flag.String("advertise", "", "this shard's address as it appears in -peers and the front end's -cluster list (default -listen)")
	replicas := flag.Int("replicas", 1, "next-in-line shards holding a copy of each checkpoint (with -peers)")
	writeDeadline := flag.Duration("write-deadline", 10*time.Second, "socket write deadline for the shard protocol")
	faultsFile := flag.String("faults", "", "fault-injection plan (JSON, see internal/fault) armed at boot: faults the listener, its connections, replication pushes, and the model store")
	flag.Parse()

	// The fault plan arms at boot, so window offsets count from process
	// start. Connections accepted on the wrapped listener match rules by
	// the listener label (this shard's advertised address), the store by
	// label "store".
	var inj *fault.Injector
	if *faultsFile != "" {
		data, err := os.ReadFile(*faultsFile)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := fault.LoadPlan(data)
		if err != nil {
			log.Fatal(err)
		}
		if inj, err = fault.New(plan); err != nil {
			log.Fatal(err)
		}
		inj.Arm()
		log.Printf("shardd: fault plan armed: %d windows (fault seed %d)", len(inj.Windows()), plan.Seed)
	}

	opts := []serve.Option{serve.WithEventBuffer(*eventBuffer)}
	switch *admission {
	case "drop":
		opts = append(opts, serve.WithAdmission(serve.DropOnFull()))
	case "block":
		opts = append(opts, serve.WithAdmission(serve.BlockWithDeadline(*deadline)))
	case "shed":
		opts = append(opts, serve.WithAdmission(serve.ShedOldest()))
	default:
		log.Fatalf("shardd: unknown -admission %q (want drop, block or shed)", *admission)
	}
	if *storeDir != "" {
		fs, err := serve.NewFileStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		if inj != nil {
			opts = append(opts, serve.WithModelStore(fault.NewStore(fs, inj, "store")))
		} else {
			opts = append(opts, serve.WithModelStore(fs))
		}
	}
	if *quality {
		pf, err := serve.QualityPrefilter(signal.DefaultQuality())
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, serve.WithPrefilter(pf))
	}
	cfg := serve.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		Learners:           *learners,
		SampleRate:         *rate,
		History:            *history,
		AvgSeizureDuration: *avgSeizure,
	}
	if *refractory > 0 {
		cfg.AlarmCfg = rt.DefaultConfig()
		cfg.AlarmCfg.Refractory = *refractory
	}
	srv, err := serve.New(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}

	copts := cluster.Options{WriteDeadline: *writeDeadline}
	if inj != nil {
		copts.Dialer = inj.Dial // replication pushes run under the plan too
	}
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = *listen
		}
		repl := &cluster.ReplicationConfig{
			Self:     self,
			Fleet:    strings.Split(*peers, ","),
			Replicas: *replicas,
		}
		if err := repl.Validate(); err != nil {
			log.Fatal(err)
		}
		copts.Replication = repl
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	if inj != nil {
		label := *advertise
		if label == "" {
			label = *listen
		}
		ln = fault.NewListener(ln, inj, label)
	}
	ss := cluster.Serve(srv, ln, copts)
	replication := "off"
	if copts.Replication != nil {
		replication = *peers
	}
	log.Printf("shardd: serving on %s (workers=%d learners=%d admission=%s rate=%gHz store=%q replication=%s)",
		ss.Addr(), *workers, *learners, *admission, *rate, *storeDir, replication)

	sig := make(chan os.Signal, 1)
	ossignal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shardd: shutting down")
	ss.Close()  // stop accepting, sever clients
	srv.Close() // drain queues, finish retrains, flush checkpoints
	st := srv.Snapshot()
	log.Printf("shardd: served %d windows, %d alarms, %d retrains (%d errors) across %d sessions",
		st.Windows, st.Alarms, st.Retrains, st.RetrainErrors, st.SessionsCreated)
}
