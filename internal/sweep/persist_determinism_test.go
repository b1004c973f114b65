package sweep

import (
	"bytes"
	"context"
	"testing"
)

// TestSaveCacheDeterministic pins the justification on SaveCache's
// //lint:deterministic map range: the memo's entries are collected in
// map order and then sorted by key before they are written, so two
// engines that evaluated the same grid — with different worker counts,
// hence different memo insertion orders — must persist byte-identical
// caches.
func TestSaveCacheDeterministic(t *testing.T) {
	spec := trainSpec0(t)
	spec.GlobalBatches = []int{8, 16, 32}

	save := func(workers int) []byte {
		t.Helper()
		e := New(workers)
		if _, err := e.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.SaveCache(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	a, b := save(1), save(4)
	if len(a) == 0 {
		t.Fatal("empty cache file")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("cache bytes differ across engines evaluating the same grid:\n%s\n---\n%s", a, b)
	}
}
