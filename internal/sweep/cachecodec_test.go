package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"testing"

	"optimus/internal/serve"
)

// cacheFile is the cache file's schema as encoding/json sees it: the
// oracle the codec in cachecodec.go is held to.
type cacheFile struct {
	Version   int                `json:"version"`
	CostModel string             `json:"cost_model"`
	Entries   map[string]Metrics `json:"entries"`
}

// encodeJSON is the encoding SaveCache reproduces.
func encodeJSON(t testing.TB, f cacheFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// file is d as encoding/json would have decoded it.
func (d *decodedCache) file() cacheFile {
	f := cacheFile{Version: d.version, CostModel: d.costModel}
	if d.hasEntries {
		f.Entries = make(map[string]Metrics, d.entries.n)
	}
	for i := range d.entries.n {
		c := d.entries.at(i)
		f.Entries[c.key] = c.ent.m
	}
	return f
}

// engineWith returns an engine whose memo holds entries as completed
// evaluations.
func engineWith(entries map[string]Metrics) *Engine {
	closed := make(chan struct{})
	close(closed)
	e := New(1)
	for k, m := range entries {
		e.memo[k] = &memoEntry{done: closed, m: m}
	}
	return e
}

// cacheFixture is a cache file written by the encoding/json-based
// SaveCache the codec replaced, from one engine that ran three grids:
// llama2-13b on two H100s at 2 req/s and a batch cap of 8 with 16
// requests, once under reserve, paged (prefix 0 and 64) and disaggregated
// policies, and once with a two-tenant chat/batch mix on a single
// instance and a two-replica least-kv fleet; and gpt-22b on eight A100s at
// a global batch of 8, one microbatch and full recompute. It holds both a
// null and a non-empty PerTenant. A cost-model bump invalidates it, and
// then the file is rewritten by the current SaveCache.
const cacheFixture = "testdata/cache-v1.json"

// TestCacheFileV1Golden pins compatibility with files written before the
// codec: loading the fixture and saving it again returns its bytes, and
// the reader decodes it exactly as json.Unmarshal does.
func TestCacheFileV1Golden(t *testing.T) {
	want, err := os.ReadFile(cacheFixture)
	if err != nil {
		t.Fatal(err)
	}
	e := New(1)
	if err := e.LoadCacheFile(cacheFixture); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := e.SaveCache(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("saved fixture differs from %s:\n%s", cacheFixture, got.Bytes())
	}

	var oracle cacheFile
	if err := json.Unmarshal(want, &oracle); err != nil {
		t.Fatal(err)
	}
	d, err := decodeCache(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.file(), oracle) {
		t.Error("reader and json.Unmarshal disagree on the fixture")
	}
	var null, nonEmpty int
	for _, m := range oracle.Entries {
		if m.PerTenant == nil {
			null++
		} else if len(m.PerTenant) > 0 {
			nonEmpty++
		}
	}
	if null == 0 || nonEmpty == 0 || e.CacheSize() != len(oracle.Entries) {
		t.Errorf("fixture has %d null and %d non-empty PerTenant entries of %d, %d loaded",
			null, nonEmpty, len(oracle.Entries), e.CacheSize())
	}
}

// codecFloats are the values where encoding/json's float format turns:
// signed zero, the 1e-6 and 1e21 exponent cut-offs on either side,
// subnormals and the extremes.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-7, -1e-7, 1e-6, 9.99999e-7, 1.0000001e-6,
	1e20, 1e21, -1e21, 999999999999999900000, 1e-9, 1.23e-10, 1e-100, 1e100, 123456789.125,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	2.225073858507201e-308, math.MaxFloat64, -math.MaxFloat64, 1.7374758603697913, 13015859200,
}

// codecStrings cover every branch of string escaping: HTML characters,
// quotes, backslashes, control bytes, DEL, invalid UTF-8, U+2028/U+2029
// and plain non-ASCII.
var codecStrings = []string{
	"", "default", "chat", "a<b>&c", `quo"te`, `back\slash`, "ctl\x00\x01\x1f", "tab\tnl\n", "del\x7f",
	"bad\xff\xfeutf8", "sep\u2028\u2029", "héllo", "日本", "Llama2-13B#683baa58a41f5b6b|H100 x2|2|0",
}

// randomMetrics fills every field of a Metrics from rng.
func randomMetrics(rng *rand.Rand) Metrics {
	f := func() float64 {
		switch rng.IntN(4) {
		case 0:
			return codecFloats[rng.IntN(len(codecFloats))]
		case 1:
			for {
				if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
					return x
				}
			}
		case 2:
			return rng.Float64() * math.Pow(10, float64(rng.IntN(60)-30))
		}
		return float64(rng.IntN(1 << 20))
	}
	n := func() int {
		switch rng.IntN(4) {
		case 0:
			return []int{0, 1, -1, math.MaxInt, math.MinInt}[rng.IntN(5)]
		case 1:
			return int(rng.Uint64())
		}
		return rng.IntN(1000)
	}
	m := Metrics{
		Time: f(), MFU: f(), Fits: rng.IntN(2) == 0,
		TTFTP95: f(), TPOTP95: f(), TokensPerSec: f(),
		Preemptions: n(), RecomputedTokens: n(), KVUtil: f(), KVTransfers: n(), TransferTime: f(),
		PrefixHits: n(), PrefixSavedTokens: n(), KVSwapOuts: n(), KVSwapIns: n(), SwapTime: f(),
	}
	m.Memory.Parameters, m.Memory.Gradients, m.Memory.Optimizer, m.Memory.Activations = f(), f(), f(), f()
	m.Footprint.Weights, m.Footprint.KVCache = f(), f()
	switch k := rng.IntN(4); k {
	case 0: // nil
	case 1:
		m.PerTenant = []TenantSLO{}
	default:
		for range k {
			m.PerTenant = append(m.PerTenant, TenantSLO{
				Tenant: codecStrings[rng.IntN(len(codecStrings))], Requests: n(),
				TTFTP95: f(), TPOTP95: f(), E2EP95: f(),
			})
		}
	}
	return m
}

// TestCacheCodecMatchesEncodingJSON is the codec's differential oracle:
// random snapshots, keys and tenant names from codecStrings and every
// metric drawn from edge values, random bits and random magnitudes, must
// save to exactly encoding/json's bytes and load back to what
// json.Unmarshal decodes. encoding/json writes every field, so a Metrics
// field the codec misses fails here. A NaN or infinity anywhere is an
// error that writes nothing.
func TestCacheCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	for round := range 200 {
		entries := make(map[string]Metrics)
		for i := range rng.IntN(6) {
			key := codecStrings[rng.IntN(len(codecStrings))]
			if rng.IntN(2) == 0 {
				key += string(rune('a' + i))
			}
			entries[key] = randomMetrics(rng)
		}
		var got bytes.Buffer
		if err := engineWith(entries).SaveCache(&got); err != nil {
			t.Fatal(err)
		}
		want := encodeJSON(t, cacheFile{cacheFileVersion, costModelVersion, entries})
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("round %d: SaveCache differs from encoding/json:\n%s\nwant:\n%s", round, got.Bytes(), want)
		}
		saved := make([]savedEntry, 0, len(entries))
		for k := range entries {
			m := entries[k]
			saved = append(saved, savedEntry{k, &m})
		}
		if n := cacheSize(saved); got.Len() > n {
			t.Fatalf("round %d: %d bytes written, size bound %d", round, got.Len(), n)
		}
		d, err := decodeCache(want)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var oracle cacheFile
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.file(), oracle) {
			t.Fatalf("round %d: reader and json.Unmarshal disagree", round)
		}
	}

	// Every float64 of a Metrics, nested and per tenant, found by
	// reflection so that a new field is covered without editing this.
	m := randomMetrics(rng)
	m.PerTenant = []TenantSLO{{Tenant: "a"}}
	var floats []*float64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			floats = append(floats, v.Addr().Interface().(*float64))
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(&m).Elem())
	for i, p := range floats {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			old := *p
			*p = bad
			var buf bytes.Buffer
			err := engineWith(map[string]Metrics{"k": m}).SaveCache(&buf)
			if err == nil || buf.Len() != 0 {
				t.Errorf("float field %d = %v: err %v, %d bytes written", i, bad, err, buf.Len())
			}
			*p = old
		}
	}
}

// duplicateNames are files a SaveCache never writes, on which the
// reader must still agree with json.Unmarshal: the last of a repeated
// key or field wins, a repeated object or array is decoded into the
// value before it (a PerTenant element within the slice's capacity
// included), and whitespace, escapes and field order are free.
var duplicateNames = []string{
	`{"entries":{"a":{"Time":1,"MFU":2},"a":{"MFU":3}},"entries":{"b":{}},"version":2,"version":1}`,
	`{"entries":{"a":{"Memory":{"Parameters":1},"Memory":{"Gradients":2e-7},"Footprint":{"Weights":1},"Footprint":{}}}}`,
	`{"entries":{"a":{"PerTenant":[{"Tenant":"p","Requests":3},{"Tenant":"q"},{"E2EP95":1}],` +
		`"PerTenant":[{"Requests":4}],"PerTenant":[{},{"TTFTP95":-0.5},{},{}]}}}`,
	`{"entries":{"a":{"PerTenant":[{"Tenant":"p"}],"PerTenant":[]}},"entries":{"b":{"PerTenant":[],"PerTenant":null}}}`,
	" \t\r\n{ \"entries\" : { } , \"cost_model\" : \"x\\u0041\\n\" } \n",
	`{"cost_model":"\u00e9\ud800x","version":-0,"entries":{"\u2028<&>":{"Fits":true}}}`,
}

// TestLoadCacheDecodesLikeEncodingJSON: the reader accepts every
// duplicateNames file and decodes it as json.Unmarshal does.
func TestLoadCacheDecodesLikeEncodingJSON(t *testing.T) {
	for _, in := range duplicateNames {
		d, err := decodeCache([]byte(in))
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		var oracle cacheFile
		if err := json.Unmarshal([]byte(in), &oracle); err != nil {
			t.Fatal(err)
		}
		if got := d.file(); !reflect.DeepEqual(got, oracle) {
			t.Errorf("%s:\nreader          %+v\njson.Unmarshal  %+v", in, got, oracle)
		}
	}
}

// FuzzLoadCache: the reader never panics, and whatever it accepts
// json.Unmarshal accepts too and decodes to the same cacheFile.
func FuzzLoadCache(f *testing.F) {
	fixture, err := os.ReadFile(cacheFixture)
	if err != nil {
		f.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, fixture); err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(compact.Bytes())
	f.Add(append(bytes.Clone(fixture), "{}"...)) // trailing data
	// The forged snapshot of TestLoadCachePrefersLiveEntries.
	f.Add([]byte(`{"version":1,"cost_model":"` + costModelVersion + `","entries":{"k":{"Time":123456}}}`))
	for _, in := range duplicateNames {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = New(1).LoadCache(bytes.NewReader(data))
		d, err := decodeCache(data)
		if err != nil {
			return
		}
		var oracle cacheFile
		if err := json.Unmarshal(data, &oracle); err != nil {
			t.Fatalf("reader accepted what json.Unmarshal rejects (%v):\n%q", err, data)
		}
		if got := d.file(); !reflect.DeepEqual(got, oracle) {
			t.Fatalf("reader decoded %+v, json.Unmarshal %+v, from:\n%q", got, oracle, data)
		}
	})
}

// The cache I/O allocation budget on allocGrid's 24 entries. The
// encoding/json path it replaced made 7.62 objects and 3,511 bytes per
// entry in LoadCache, and 99 objects in SaveCache (60 for half the
// entries); the codec made 3.62, 1,679 and 2.
const (
	loadAllocsPerEntry = 4
	loadBytesPerEntry  = 1800
	saveAllocs         = 2
)

// allocGrid is the serving grid of the cache I/O allocation budget.
func allocGrid(t *testing.T) Spec {
	spec := servingSpec0(t)
	spec.Policies = []serve.Policy{serve.ReserveFull, serve.Paged, serve.Disaggregated}
	spec.ServeRequests = 16
	return spec
}

// TestCacheIOAllocBudget holds cache I/O to its allocation budget:
// SaveCache makes the same few allocations for half the grid as for all
// of it, and LoadCache stays within its objects and bytes per entry.
func TestCacheIOAllocBudget(t *testing.T) {
	spec := allocGrid(t)
	full := New(2)
	if _, err := full.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	spec.Rates = spec.Rates[:1]
	half := New(2)
	if _, err := half.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	save := func(e *Engine) float64 {
		return testing.AllocsPerRun(20, func() {
			buf.Reset()
			if err := e.SaveCache(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	n := full.CacheSize()
	if h, f := save(half), save(full); h != f || f > saveAllocs {
		t.Errorf("SaveCache made %.0f allocations for %d entries and %.0f for %d, budget %d whatever the count",
			h, half.CacheSize(), f, n, saveAllocs)
	}
	data := bytes.Clone(buf.Bytes())
	load := func() {
		if err := New(1).LoadCache(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, load) / float64(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for range runs {
		load()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(n)
	if allocs > loadAllocsPerEntry || bytesPer > loadBytesPerEntry {
		t.Errorf("LoadCache made %.2f allocations and %.0f bytes per entry, budget %d and %d",
			allocs, bytesPer, loadAllocsPerEntry, loadBytesPerEntry)
	}
}
