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
	if err := eng.LoadCache(strings.NewReader(`{"version":99,"entries":{}}`)); err == nil {
		t.Error("unknown version should error")
	}
	stale := `{"version":1,"cost_model":"pr1-monolith","entries":{}}`
	if err := eng.LoadCache(strings.NewReader(stale)); err == nil {
		t.Error("cache from a different cost model should error, not serve stale metrics")
	}
	// The per-request workload refactor changed serving metrics (PerTenant)
	// and every Point.Key, so a PR-3 snapshot must be rejected outright.
	pr3 := `{"version":1,"cost_model":"pr3-paged-kv","entries":{}}`
	if err := eng.LoadCache(strings.NewReader(pr3)); err == nil {
		t.Error("pre-multi-tenant cache should be rejected by the cost-model bump")
	}
	// The disaggregated-pools refactor grew every Point.Key (pool split +
	// transfer bandwidth) and serving Metrics (KV-transfer fields), so a
	// PR-4 snapshot must be refused, not silently served.
	pr4 := `{"version":1,"cost_model":"pr4-multi-tenant","entries":{}}`
	if err := eng.LoadCache(strings.NewReader(pr4)); err == nil {
		t.Error("pre-disaggregation cache should be rejected by the cost-model bump")
	}
	// The cluster-serving refactor grew every Point.Key (fleet size +
	// routing policy), so a PR-5 snapshot must be refused, not silently
	// served.
	pr5 := `{"version":1,"cost_model":"pr5-disagg-serving","entries":{}}`
	if err := eng.LoadCache(strings.NewReader(pr5)); err == nil {
		t.Error("pre-cluster cache should be rejected by the cost-model bump")
	}
	// The temporal-workload refactor grew every Point.Key (schedule, session
	// turns, think time) and changed the paged policy's session prefix
	// growth, so a PR-8 snapshot must be refused, not silently served.
	pr8 := `{"version":1,"cost_model":"pr8-prefix-tiered-kv","entries":{}}`
	if err := eng.LoadCache(strings.NewReader(pr8)); err == nil {
		t.Error("pre-temporal-workload cache should be rejected by the cost-model bump")
	}
	// The reader is stricter than encoding/json, which ignores unknown
	// fields and, through a Decoder, trailing data; and it refuses what
	// encoding/json refuses: a number of the wrong type or one that
	// overflows an int.
	head := `{"version":1,"cost_model":"` + costModelVersion + `","entries":{"k":`
	for _, tc := range []struct{ name, in string }{
		{"trailing data", head + `{"Time":1}}} {}`},
		{"unknown field", head + `{"Time":1,"Latency":2}}}`},
		{"unknown top-level field", `{"version":1,"cost_model":"` + costModelVersion + `","entries":{},"extra":0}`},
		{"float for an int", head + `{"Preemptions":1.5}}}`},
		{"string for a float", head + `{"Time":"1"}}}`},
		{"int overflow", head + `{"KVSwapIns":9223372036854775808}}}`},
		{"float overflow", head + `{"Time":1e400}}}`},
	} {
		err := New(1).LoadCache(strings.NewReader(tc.in))
		if err == nil || !strings.HasPrefix(err.Error(), "sweep: load cache: ") {
			t.Errorf("%s: got %v, want a load cache error", tc.name, err)
		}
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
	forged := `{"version":1,"cost_model":"` + costModelVersion + `","entries":{"` + key + `":{"Time":123456}}}`
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
