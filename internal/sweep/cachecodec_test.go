package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"optimus/internal/serve"
)

// engineWith returns an engine whose memo holds entries as finished
// evaluations.
func engineWith(entries map[string]Metrics) *Engine {
	e := New(1)
	for k, m := range entries {
		e.memo[k] = &memoEntry{m: m}
	}
	return e
}

// memoOf returns the completed entries of e's memo.
func memoOf(e *Engine) map[string]Metrics {
	out := make(map[string]Metrics, len(e.memo))
	for k, ent := range e.memo {
		out[k] = ent.m
	}
	return out
}

// codecFloats are edge values: the turns between plain and exponent
// form, subnormals and the extremes.
var codecFloats = []float64{
	1, -1, 0.1, 1.5, 1e-7, -1e-7, 1e-6, 9.99999e-7, 1.0000001e-6, 1e-5, 1e-4,
	1e20, 1e21, -1e21, 999999999999999900000, 1e-9, 1.23e-10, 1e-100, 1e100, 123456789.125,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	2.225073858507201e-308, math.MaxFloat64, -math.MaxFloat64, 1.7374758603697913, 13015859200,
}

// codecStrings cover the string paths: HTML characters, quotes,
// backslashes, control bytes, DEL, invalid UTF-8, U+2028/U+2029 and
// plain non-ASCII.
var codecStrings = []string{
	"", "default", "chat", "a<b>&c", `quo"te`, `back\slash`, "ctl\x00\x01\x1f", "tab\tnl\n", "del\x7f",
	"bad\xff\xfeutf8", "sep\u2028\u2029", "héllo", "日本", "Llama2-13B#683baa58a41f5b6b|H100 x2|2|0",
}

// fill sets every number, boolean and string under v from rng, none of
// them to its zero value, and gives every slice one to three filled
// elements. A kind it does not know panics, so that a new kind of
// Metrics field makes the round-trip test be extended.
func fill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		f := 0.0
		for f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			switch rng.IntN(3) {
			case 0:
				f = codecFloats[rng.IntN(len(codecFloats))]
			case 1:
				f = math.Float64frombits(rng.Uint64())
			default:
				f = rng.Float64() * math.Pow(10, float64(rng.IntN(60)-30))
			}
		}
		v.SetFloat(f)
	case reflect.Int:
		n := []int{1, -1, math.MaxInt, math.MinInt, int(rng.Uint64()), 1 + rng.IntN(1000)}[rng.IntN(6)]
		v.SetInt(int64(max(n, 1) - max(-n, 0)))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(codecStrings[1+rng.IntN(len(codecStrings)-1)])
	case reflect.Struct:
		for i := range v.NumField() {
			fill(rng, v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1+rng.IntN(3), 3))
		for i := range v.Len() {
			fill(rng, v.Index(i))
		}
	default:
		panic(fmt.Sprintf("fill: no values for %v", v.Type()))
	}
}

// randomSnapshot is a memo of up to five entries with every field set,
// keyed from codecStrings, plus the all-zero Metrics with a nil and with
// an empty PerTenant.
func randomSnapshot(rng *rand.Rand) map[string]Metrics {
	entries := map[string]Metrics{
		"zero":  {},
		"empty": {Time: math.Copysign(0, -1), PerTenant: []TenantSLO{}},
	}
	for i := range rng.IntN(6) {
		var m Metrics
		fill(rng, reflect.ValueOf(&m).Elem())
		entries[codecStrings[rng.IntN(len(codecStrings))]+string(rune('a'+i))] = m
	}
	return entries
}

// saved is what a snapshot reads back as: keys that are not valid UTF-8
// are not saved, and tenant names are made valid UTF-8.
func saved(entries map[string]Metrics) map[string]Metrics {
	out := make(map[string]Metrics, len(entries))
	for k, m := range entries {
		if !utf8.ValidString(k) {
			continue
		}
		m.PerTenant = slices.Clone(m.PerTenant)
		for i := range m.PerTenant {
			m.PerTenant[i].Tenant = strings.ToValidUTF8(m.PerTenant[i].Tenant, "\uFFFD")
		}
		out[k] = m
	}
	return out
}

// TestCacheFileRoundTrip: random snapshots with every Metrics field set
// (found by reflection, so a field the codec drops fails) save to valid
// JSON within the size bound, with the entries object keyed as saved;
// loading a file and saving it again gives the same bytes, and the
// loaded memo equals the snapshot. A NaN or infinity in any float is an
// error that writes nothing.
func TestCacheFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	for round := range 200 {
		entries := randomSnapshot(rng)
		want := saved(entries)
		var first bytes.Buffer
		if err := engineWith(entries).SaveCache(&first); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(first.Bytes()) {
			t.Fatalf("round %d: not valid JSON:\n%s", round, first.Bytes())
		}
		var file struct {
			Entries map[string]json.RawMessage `json:"entries"`
		}
		if err := json.Unmarshal(first.Bytes(), &file); err != nil || len(file.Entries) != len(want) {
			t.Fatalf("round %d: encoding/json reads %d entries (%v), want %d", round, len(file.Entries), err, len(want))
		}
		var list []savedEntry
		for k := range want {
			m := want[k]
			list = append(list, savedEntry{k, &m})
			if _, ok := file.Entries[k]; !ok {
				t.Fatalf("round %d: encoding/json misses key %q", round, k)
			}
		}
		if n := cacheSize(list); first.Len() > n {
			t.Fatalf("round %d: %d bytes written, size bound %d", round, first.Len(), n)
		}
		loaded := New(1)
		if err := loaded.LoadCache(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("round %d: %v\n%s", round, err, first.Bytes())
		}
		if got := memoOf(loaded); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: loaded\n%+v\nwant\n%+v", round, got, want)
		}
		var again bytes.Buffer
		if err := loaded.SaveCache(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("round %d: resaved file differs:\n%s\nfirst:\n%s", round, again.Bytes(), first.Bytes())
		}
	}

	// Every float64 of a Metrics, nested and per tenant.
	var m Metrics
	fill(rng, reflect.ValueOf(&m).Elem())
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

// cacheText is a cache file of the given cost model holding lines, each
// an entry's line as SaveCache writes it.
func cacheText(costModel string, lines ...string) string {
	s := `{"version":2,"cost_model":"` + costModel + `","entries":{`
	for i, line := range lines {
		if i > 0 {
			s += ","
		}
		s += "\n" + line
	}
	return s + "\n}}\n"
}

// entryText is the line of an entry whose Time is the token time and
// whose other values are zero.
func entryText(key, time string) string {
	return `"` + key + `":[` + time + `,0,0,0,0,0,0,0,false,0,0,0,0,0,0,0,0,0,0,0,0,0,null]`
}

// FuzzLoadCache: the reader never panics, a file it rejects loads
// nothing, and a file it accepts saves again to one it accepts, with the
// same memo and, saved once more, the same bytes.
func FuzzLoadCache(f *testing.F) {
	var snap bytes.Buffer
	if err := engineWith(randomSnapshot(rand.New(rand.NewPCG(30, 2)))).SaveCache(&snap); err != nil {
		f.Fatal(err)
	}
	file := snap.String()
	for _, in := range []string{
		file,
		strings.Replace(cacheText(costModelVersion), "\n", "\n\n", 1), // a blank line
		cacheText(costModelVersion),
		cacheText(costModelVersion, entryText("k", "123456")), // TestLoadCachePrefersLiveEntries' forgery
		file + "{}",
		file[:len(file)/2],
		`{"version":1,"cost_model":"` + costModelVersion + `","entries":{"k":{"Time":1}}}`,
		cacheText(costModelVersion, entryText("b", "1"), entryText("a", "2")),
		cacheText(costModelVersion, entryText("a", "1"), entryText("a", "2")),
		cacheText(costModelVersion, `"k":[1,2,3]`),
		cacheText(costModelVersion, entryText("k", "1e400")),
		cacheText(costModelVersion, entryText("é\\n", "-0"), entryText(`é<&>`, "+.5")),
		cacheText("pr8-prefix-tiered-kv", entryText("k", "1")),
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New(1)
		if err := e.LoadCache(bytes.NewReader(data)); err != nil {
			if e.CacheSize() != 0 {
				t.Fatalf("rejected file (%v) loaded %d entries", err, e.CacheSize())
			}
			return
		}
		var first, second bytes.Buffer
		if err := e.SaveCache(&first); err != nil {
			t.Fatalf("accepted file does not save: %v\n%q", err, data)
		}
		again := New(1)
		if err := again.LoadCache(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("resaved file rejected: %v\n%q", err, first.Bytes())
		}
		if !reflect.DeepEqual(memoOf(again), memoOf(e)) {
			t.Fatalf("resaved file loads another memo:\n%q\nfrom\n%q", first.Bytes(), data)
		}
		if err := again.SaveCache(&second); err != nil || !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Fatalf("second save differs (%v):\n%q\nfirst\n%q", err, second.Bytes(), first.Bytes())
		}
	})
}

// The cache I/O allocation budget on allocGrid's 24 entries. In LoadCache
// the encoding/json path of cache format 1 made 7.62 objects and 3,511
// bytes per entry, its own codec 3.62 and 1,679; format 2, one line per
// entry, makes 3.62 and 1,079 (1,087 under -race), read from a 10,111-byte
// file. SaveCache made 99 objects with encoding/json (60 for half the
// entries), and 2 since.
const (
	loadAllocsPerEntry = 4
	loadBytesPerEntry  = 1150
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
	h, f := save(half), save(full)
	t.Logf("SaveCache: %.0f allocations for %d entries, %.0f for %d", h, half.CacheSize(), f, n)
	if h != f || f > saveAllocs {
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
	t.Logf("LoadCache: %.2f allocations and %.0f bytes per entry; %d-byte file", allocs, bytesPer, len(data))
	if allocs > loadAllocsPerEntry || bytesPer > loadBytesPerEntry {
		t.Errorf("LoadCache made %.2f allocations and %.0f bytes per entry, budget %d and %d",
			allocs, bytesPer, loadAllocsPerEntry, loadBytesPerEntry)
	}
}
