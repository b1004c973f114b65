package sweep

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/tech"
)

// trainSpec0 is a small training grid for persistence tests.
func trainSpec0(t *testing.T) Spec {
	t.Helper()
	cfg, err := model.ByName("gpt-22b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := arch.SystemOf(arch.A100(), 8, 8, tech.NVLink3, tech.IBHDR)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Models: []model.Config{cfg}, Systems: []*arch.System{sys},
		GlobalBatches: []int{8},
		Constraints:   Constraints{TopK: 10},
	}
}

// TestCacheRoundTrip: a cold engine loading another engine's saved cache
// must answer the whole grid from the memo and reproduce the ranking.
func TestCacheRoundTrip(t *testing.T) {
	spec := trainSpec0(t)
	path := filepath.Join(t.TempDir(), "cache.json")

	warm := New(2)
	first, err := warm.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Evaluated == 0 {
		t.Fatal("expected evaluations on a cold engine")
	}
	if err := warm.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}

	cold := New(2)
	if err := cold.LoadCacheFile(path); err != nil {
		t.Fatal(err)
	}
	if cold.CacheSize() != first.Stats.Evaluated {
		t.Errorf("loaded %d entries, want %d", cold.CacheSize(), first.Stats.Evaluated)
	}
	second, err := cold.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Evaluated != 0 {
		t.Errorf("cached run re-evaluated %d candidates", second.Stats.Evaluated)
	}
	if second.Stats.MemoHits != first.Stats.Evaluated {
		t.Errorf("cached run hit %d, want %d", second.Stats.MemoHits, first.Stats.Evaluated)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Error("cached ranking must match the original")
	}
}

// TestCacheRoundTripServing: serving metrics (SLO percentiles, simulated
// throughput) must survive the disk round trip untouched.
func TestCacheRoundTripServing(t *testing.T) {
	spec := servingSpec0(t)
	path := filepath.Join(t.TempDir(), "cache.json")

	warm := New(2)
	first, err := warm.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}
	cold := New(2)
	if err := cold.LoadCacheFile(path); err != nil {
		t.Fatal(err)
	}
	second, err := cold.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Evaluated != 0 {
		t.Errorf("cached serving run re-simulated %d candidates", second.Stats.Evaluated)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Error("serving metrics must survive the disk round trip")
	}
}

// TestLoadCacheMissingAndMalformed: a missing file is a clean start; a
// malformed or wrong-version file is an explicit error.
func TestLoadCacheMissingAndMalformed(t *testing.T) {
	eng := New(1)
	if err := eng.LoadCacheFile(filepath.Join(t.TempDir(), "nope.json")); err != nil {
		t.Errorf("missing cache file should not error: %v", err)
	}
	if eng.CacheSize() != 0 {
		t.Error("missing file should load nothing")
	}
	if err := eng.LoadCache(strings.NewReader("{not json")); err == nil {
		t.Error("malformed cache should error")
	}
	// Each cost-model bump changed metrics or every Point.Key, so a
	// snapshot of an earlier model must be refused by the cost model, not
	// silently served: pr3-paged-kv predates the per-request workload
	// (PerTenant), pr4-multi-tenant the disaggregated pools,
	// pr5-disagg-serving the fleet axes and pr8-prefix-tiered-kv the
	// temporal workload.
	for _, old := range []string{"pr1-monolith", "pr3-paged-kv", "pr4-multi-tenant", "pr5-disagg-serving", "pr8-prefix-tiered-kv"} {
		err := eng.LoadCache(strings.NewReader(cacheText(old, entryText("k", "1"))))
		if err == nil || !strings.Contains(err.Error(), "cost model") {
			t.Errorf("cache of cost model %s: got %v, want a cost-model error", old, err)
		}
	}
	// The reader accepts only the layout SaveCache writes.
	cm := costModelVersion
	ok := entryText("k", "1")
	for _, tc := range []struct{ name, in string }{
		{"unknown version", `{"version":99,"cost_model":"` + cm + `","entries":{` + "\n}}\n"},
		{"version 1", `{"version":1,"cost_model":"` + cm + `","entries":{"k":{"Time":1}}}`},
		{"version 1, indented", "{\n \"version\": 1,\n \"cost_model\": \"" + cm + "\",\n \"entries\": {}\n}\n"},
		{"trailing data", cacheText(cm, ok) + "{}"},
		{"missing tail", strings.TrimSuffix(cacheText(cm, ok), "}}\n")},
		{"unknown top-level field", `{"version":2,"cost_model":"` + cm + `","extra":0,"entries":{` + "\n}}\n"},
		{"unsorted keys", cacheText(cm, entryText("b", "1"), entryText("a", "1"))},
		{"duplicate key", cacheText(cm, ok, ok)},
		{"short value array", cacheText(cm, `"k":[1,2,3]`)},
		{"long value array", cacheText(cm, strings.Replace(ok, "null]", "null,0]", 1))},
		{"space after a comma", cacheText(cm, strings.Replace(ok, ",0,", ", 0,", 1))},
		{"float for an int", cacheText(cm, strings.Replace(ok, "false,0,0,0,0", "false,0,0,0,1.5", 1))},
		{"string for a float", cacheText(cm, entryText("k", `"1"`))},
		{"int overflow", cacheText(cm, strings.Replace(ok, "false,0,0,0,0", "false,0,0,0,9223372036854775808", 1))},
		{"float overflow", cacheText(cm, entryText("k", "1e400"))},
		{"non-finite number", cacheText(cm, entryText("k", "NaN"))},
		{"infinity", cacheText(cm, entryText("k", "Inf"))},
		{"hex float", cacheText(cm, entryText("k", "0x1p-2"))},
		{"PerTenant neither null nor an array", cacheText(cm, strings.Replace(ok, "null]", "{}]", 1))},
		{"short tenant", cacheText(cm, strings.Replace(ok, "null]", `[["a",1,2,3]]]`, 1))},
		{"unterminated key", cacheText(cm, `"k\":[1]`)},
	} {
		e := New(1)
		err := e.LoadCache(strings.NewReader(tc.in))
		if err == nil || !strings.HasPrefix(err.Error(), "sweep: load cache: ") || !strings.Contains(err.Error(), "delete") {
			t.Errorf("%s: got %v, want a load cache error that says to delete the file", tc.name, err)
		}
		if e.CacheSize() != 0 {
			t.Errorf("%s: a rejected file loaded %d entries", tc.name, e.CacheSize())
		}
	}
	e := New(1)
	if err := e.LoadCache(strings.NewReader(cacheText(cm, entryText("a", "1"), ok))); err != nil || e.CacheSize() != 2 {
		t.Errorf("well-formed file: %v, %d entries", err, e.CacheSize())
	}
}

// TestSaveCacheFileBareFilename: a separator-free -cache path must stage
// its temp file next to the destination (cwd), not in os.TempDir(), or the
// atomic rename can cross filesystems and fail with EXDEV.
func TestSaveCacheFileBareFilename(t *testing.T) {
	spec := trainSpec0(t)
	eng := New(1)
	if _, err := eng.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	if err := eng.SaveCacheFile("cache.json"); err != nil {
		t.Fatalf("bare filename save failed: %v", err)
	}
	cold := New(1)
	if err := cold.LoadCacheFile("cache.json"); err != nil {
		t.Fatal(err)
	}
	if cold.CacheSize() != eng.CacheSize() {
		t.Errorf("round trip lost entries: %d vs %d", cold.CacheSize(), eng.CacheSize())
	}
	// No temp droppings left behind in the destination directory.
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "cache.json" {
		t.Errorf("unexpected files after save: %v", ents)
	}
}

// TestSaveCacheFilePermissions is the regression gate on the cache-file
// mode: SaveCacheFile stages through os.CreateTemp, whose 0600 mode the
// rename used to freeze in place — a sweep cache written by one CI user
// was unreadable to every other, silently defeating shared cache reuse.
// The temp file must be chmodded to umask-honoring 0644 before the rename.
func TestSaveCacheFilePermissions(t *testing.T) {
	spec := trainSpec0(t)
	eng := New(1)
	if _, err := eng.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := eng.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want := os.FileMode(0o644) &^ processUmask
	if got := info.Mode().Perm(); got != want {
		t.Errorf("cache file mode %v, want %v (0644 under umask %03o)", got, want, processUmask)
	}
	// Whatever the umask, the CreateTemp 0600 mode must not leak through
	// unchanged when the umask would have allowed a group-readable file.
	if processUmask&0o040 == 0 && info.Mode().Perm()&0o040 == 0 {
		t.Errorf("cache file %v lost group readability the umask permits", info.Mode().Perm())
	}
}

// TestLoadCachePrefersLiveEntries: entries computed in-process must not be
// overwritten by a loaded snapshot.
func TestLoadCachePrefersLiveEntries(t *testing.T) {
	spec := trainSpec0(t)
	eng := New(1)
	first, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	size := eng.CacheSize()

	// A forged snapshot with one of the live keys and absurd metrics.
	key := first.Rows[0].Point.Key()
	forged := cacheText(costModelVersion, entryText(key, "123456"))
	if err := eng.LoadCache(strings.NewReader(forged)); err != nil {
		t.Fatal(err)
	}
	if eng.CacheSize() != size {
		t.Errorf("forged load changed cache size %d -> %d", size, eng.CacheSize())
	}
	again, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rows[0].Metrics.Time == 123456 {
		t.Error("live memo entry was clobbered by the loaded snapshot")
	}
}
