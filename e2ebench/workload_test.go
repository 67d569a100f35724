package main

import "testing"

// Every patient's warm-up — from its stream start to its first confirm
// point — must hold one whole seizure, or its first retrain would label
// interictal EEG.
func TestWarmUpHoldsOneSeizure(t *testing.T) {
	for _, w := range workloads {
		L := w.cycle()
		for i := 0; i < w.patients; i++ {
			_, off := w.offset(i)
			end := -1
			for s := 0; s < L; s++ {
				if w.isConfirmPoint((off + s) % L) {
					end = s
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s patient %d: no confirm point in a whole cycle", w.name, i)
			}
			onsets := 0
			for s := 0; s <= end; s++ {
				pos := (off + s) % L
				if pos >= firstOnset && (pos-firstOnset)%int(w.gap) == 0 {
					if s+int(w.dur) > end {
						t.Fatalf("%s patient %d: seizure at %d s not over before the confirm at %d s", w.name, i, s, end)
					}
					onsets++
				}
			}
			if onsets != 1 {
				t.Fatalf("%s patient %d: %d seizure onsets in the warm-up", w.name, i, onsets)
			}
		}
	}
}

func TestConfirmPointsOnePerSeizure(t *testing.T) {
	for _, w := range workloads {
		n := 0
		for pos := 0; pos < w.cycle(); pos++ {
			if w.isConfirmPoint(pos) {
				n++
			}
		}
		if n != w.seizures {
			t.Fatalf("%s: %d confirm points for %d seizures", w.name, n, w.seizures)
		}
	}
}
