package forest

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestForestSaveLoadRoundTrip(t *testing.T) {
	X, y := blobs(300, 4, 21)
	cfg := DefaultConfig()
	cfg.NumTrees = 12
	orig, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTrees() != orig.NumTrees() {
		t.Errorf("tree count %d vs %d", back.NumTrees(), orig.NumTrees())
	}
	if math.Abs(back.OOBError()-orig.OOBError()) > 1e-12 {
		t.Errorf("OOB %g vs %g", back.OOBError(), orig.OOBError())
	}
	for i := range X {
		if orig.Predict(X[i]) != back.Predict(X[i]) {
			t.Fatalf("prediction mismatch at %d", i)
		}
		if orig.Prob(X[i]) != back.Prob(X[i]) {
			t.Fatalf("probability mismatch at %d", i)
		}
	}
}

func TestForestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"trees":[]}`)); err == nil {
		t.Error("empty forest should fail")
	}
	if _, err := Load(strings.NewReader(`garbage`)); err == nil {
		t.Error("garbage should fail")
	}
}

// TestForestLoadRejectsInconsistentWidths covers checkpoints whose
// trees are each well-formed but cannot score one row together: trees
// of different widths, a split past the declared width, and a null
// tree. Both loaders must refuse them rather than build a forest that
// indexes past a row later.
func TestForestLoadRejectsInconsistentWidths(t *testing.T) {
	leaf := `{"leaf":true,"prob":0.5}`
	stump := func(nf, feature int) string {
		return fmt.Sprintf(`{"num_features":%d,"nodes":[{"feature":%d,"threshold":1,"left":1,"right":2},%s,%s]}`, nf, feature, leaf, leaf)
	}
	for name, js := range map[string]string{
		"mixed widths":     `{"trees":[` + stump(10, 3) + `,` + stump(40, 35) + `]}`,
		"split past width": `{"trees":[` + stump(10, 35) + `]}`,
		"null tree":        `{"trees":[` + stump(10, 3) + `,null]}`,
	} {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: Load accepted %s", name, js)
		}
		if _, err := LoadFlat(strings.NewReader(js)); err == nil {
			t.Errorf("%s: LoadFlat accepted %s", name, js)
		}
	}
	ff, err := LoadFlat(strings.NewReader(`{"trees":[` + stump(40, 35) + `,` + stump(40, 2) + `]}`))
	if err != nil {
		t.Fatalf("uniform 40-wide forest rejected: %v", err)
	}
	if ff.NumFeatures() != 40 {
		t.Fatalf("NumFeatures %d, want 40", ff.NumFeatures())
	}
}

func TestEmptyForestSaveFails(t *testing.T) {
	var f Forest
	if err := f.Save(&bytes.Buffer{}); err == nil {
		t.Error("saving an untrained forest should fail")
	}
}

func TestNaNOOBSurvivesRoundTrip(t *testing.T) {
	// A 1-tree forest on a tiny set can have no OOB samples -> NaN.
	X := [][]float64{{0, 0, 0}}
	y := []bool{true}
	cfg := DefaultConfig()
	cfg.NumTrees = 1
	f, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.OOBError()) {
		t.Skip("OOB happened to be defined")
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.OOBError()) {
		t.Error("NaN OOB should round-trip as NaN")
	}
}
