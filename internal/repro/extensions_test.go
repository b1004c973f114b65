package repro

import (
	"strings"
	"testing"
)

func TestExtFlashShape(t *testing.T) {
	tb, err := extFlash()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("ext-flash rows = %d, want 4", len(tb.Rows))
	}
	// Speedup grows monotonically with sequence length.
	prev := 0.0
	for _, row := range tb.Rows {
		s := strings.TrimSuffix(row[4], "x")
		v := cell(t, s)
		if v < prev {
			t.Errorf("flash speedup should grow with seq: %v", row)
		}
		prev = v
		// Flash-class activations are always below the unrecomputed ones.
		if cell(t, row[6]) >= cell(t, row[5]) {
			t.Errorf("flash-class activations should undercut standard: %v", row)
		}
	}
	if prev < 1.3 {
		t.Errorf("flash speedup at 16k = %.2fx, want > 1.3x", prev)
	}
}

func TestExtTCOShape(t *testing.T) {
	tb, err := extTCO()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Fatalf("ext-tco rows = %d, want 7", len(tb.Rows))
	}
	perPFLOP := func(name string) float64 {
		return cell(t, find(t, tb, name)[6])
	}
	// The perf/TCO trend: each vendor generation lowers $/PFLOP at equal
	// fabric class.
	if !(perPFLOP("H100-NDR") < perPFLOP("A100-HDR")) {
		t.Error("H100 should beat A100 on $/PFLOP")
	}
	if !(perPFLOP("B200-NVS-L") < perPFLOP("H100-NVS")) {
		t.Error("B200 should beat H100 on $/PFLOP")
	}
	// Compute cost dominates energy in every row.
	for _, row := range tb.Rows {
		if cell(t, row[3]) < cell(t, row[4]) {
			t.Errorf("%s: energy cost above compute cost", row[0])
		}
	}
	// The A100 total sits in the published cost decade for a 300B-token
	// run on a well-utilized large cluster ($1M-$10M).
	if total := cell(t, find(t, tb, "A100-HDR")[5]); total < 1 || total > 10 {
		t.Errorf("A100 run cost $%.1fM outside the $1-10M decade", total)
	}
}

func TestExtensionIDsRegistered(t *testing.T) {
	ids := IDs()
	var flash, tco bool
	for _, id := range ids {
		switch id {
		case "ext-flash":
			flash = true
		case "ext-tco":
			tco = true
		}
	}
	if !flash || !tco {
		t.Errorf("extension experiments missing from registry: %v", ids)
	}
}
