package features

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"selflearn/internal/signal"
	"selflearn/internal/synth"
)

// goldenRecording synthesizes a seeded two-channel recording with a
// seizure and an artifact burst at sampling rate fs.
func goldenRecording(tb testing.TB, seed int64, fs float64) *signal.Recording {
	tb.Helper()
	rec, err := synth.Generate(synth.RecordConfig{
		PatientID:  "chb01",
		RecordID:   "golden",
		Seed:       seed,
		Duration:   180,
		SampleRate: fs,
		Background: synth.DefaultBackground(),
		Seizures: []synth.SeizureEvent{
			{Start: 60, Duration: 40, Config: synth.DefaultSeizure()},
		},
		Artifacts: []synth.ArtifactEvent{
			{Start: 130, Config: synth.ArtifactConfig{Amp: 400, Duration: 8}},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// matrixHash is the FNV-1a hash of every feature value's IEEE-754 bits,
// row by row.
func matrixHash(m *Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range m.Rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestFeatureKernelsGolden pins the float bits of the three extractors
// — StreamRecording, Extract10 and Extract54 — over seeded recordings,
// so a kernel optimization (FFT packing, DWT buffering, entropy tally,
// streaming ring) that changes even the last bit of one feature fails
// here. The 250 Hz case runs 1000-sample windows, which the periodogram
// zero-pads to 1024 and the DWT edge-pads to 1024. The hashes were
// recorded on amd64, where Go never fuses multiply-adds; other
// architectures may fuse them and legitimately round differently.
func TestFeatureKernelsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases := []struct {
		seed             int64
		fs               float64
		stream, e10, e54 uint64
	}{
		{3, 256, 0xf42e3e9e1a3aa244, 0xf42e3e9e1a3aa244, 0x62832e63e4df8d23},
		{7, 256, 0x9be66782eef5b58c, 0x9be66782eef5b58c, 0x106a6475d1d4a632},
		{11, 250, 0xbdc06ca5e036222d, 0xbdc06ca5e036222d, 0x8e6c73b883738bc9},
	}
	cfg := DefaultConfig()
	for _, tc := range cases {
		rec := goldenRecording(t, tc.seed, tc.fs)
		st, err := StreamRecording(rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e10, err := Extract10(rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e54, err := Extract54(rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			name       string
			hash, want uint64
		}{
			{"StreamRecording", matrixHash(st), tc.stream},
			{"Extract10", matrixHash(e10), tc.e10},
			{"Extract54", matrixHash(e54), tc.e54},
		} {
			if got.hash != got.want {
				t.Errorf("seed %d, %g Hz: %s hash %#016x, want %#016x", tc.seed, tc.fs, got.name, got.hash, got.want)
			}
		}
	}
}
