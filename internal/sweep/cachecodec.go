package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The memo cache file holds one entry per line:
//
//	{"version":2,"cost_model":"drawn-stream-geometry","entries":{
//	"<Point.Key>":[Time,MFU,…,SwapTime,PerTenant],
//	…
//	"<Point.Key>":[…]
//	}}
//
// An entry's array holds its Metrics' values in the order of columns,
// then PerTenant: null for a nil slice, otherwise one
// ["<tenant>",Requests,TTFTP95,TPOTP95,E2EP95] array per tenant. Floats
// are written in the shortest form that parses back to the same bits,
// and keys are sorted. The file is JSON, so other tools can read it, but
// the reader accepts only this layout: every separator where the writer
// puts it, keys strictly increasing, numbers in range and nothing after
// the last line.
const (
	cacheVersionHead = `{"version":` + cacheFileVersion + `,"cost_model":`
	cacheEntriesHead = `,"entries":{`
	cacheTail        = "\n}}\n"
)

// columns points at m's values in the order an entry lists them. Writer
// and reader both walk it, so a field added to Metrics is stored once it
// is added here.
func columns(m *Metrics) [22]any {
	return [...]any{
		&m.Time, &m.MFU,
		&m.Memory.Parameters, &m.Memory.Gradients, &m.Memory.Optimizer, &m.Memory.Activations,
		&m.Footprint.Weights, &m.Footprint.KVCache, &m.Fits,
		&m.TTFTP95, &m.TPOTP95, &m.TokensPerSec, &m.Preemptions, &m.RecomputedTokens, &m.KVUtil,
		&m.KVTransfers, &m.TransferTime,
		&m.PrefixHits, &m.PrefixSavedTokens, &m.KVSwapOuts, &m.KVSwapIns, &m.SwapTime,
	}
}

// tenantColumns points at t's values after its name.
func tenantColumns(t *TenantSLO) [4]any {
	return [...]any{&t.Requests, &t.TTFTP95, &t.TPOTP95, &t.E2EP95}
}

// savedEntry is one memo entry on its way to the cache file.
type savedEntry struct {
	key string
	m   *Metrics
}

// loadedEntry is one entry read from the cache file, with the memo entry
// that will hold it.
type loadedEntry struct {
	key string
	ent memoEntry
}

// Bounds on the encoding, for sizing the output once: an entry's line
// but its key, with every value at its longest
// (-2.2250738585072014e-308) and a null PerTenant; what each tenant adds
// but its name; and the file's head and tail. Quoted strings are counted
// apart, by quotedLen.
const (
	entryLen  = len(",\n:[") + 22*len("-2.2250738585072014e-308,") + len("null]")
	tenantLen = len("[") + 4*len(",-2.2250738585072014e-308") + len("],")
	fileLen   = len(cacheVersionHead) + len(cacheEntriesHead) + len(cacheTail)
)

// cacheSize bounds the bytes appendCache writes for entries.
func cacheSize(entries []savedEntry) int {
	n := fileLen + quotedLen(costModelVersion)
	for _, c := range entries {
		n += quotedLen(c.key) + entryLen
		for _, t := range c.m.PerTenant {
			n += quotedLen(t.Tenant) + tenantLen
		}
	}
	return n
}

// asIs marks the bytes a string holds as they are in the file: printable
// ASCII but for " and \. numeric marks the bytes of a number.
var asIs, numeric = func() (s, n [256]bool) {
	for c := ' '; c < 0x7f; c++ {
		s[c] = c != '"' && c != '\\'
	}
	for _, c := range "0123456789.eE+-" {
		n[c] = true
	}
	return s, n
}()

// plain reports whether s is written as it is, between quotes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !asIs[s[i]] {
			return false
		}
	}
	return true
}

// quotedLen bounds the length of s quoted: encoding/json writes at most
// six bytes for each byte of s.
func quotedLen(s string) int {
	if plain(s) {
		return len(s) + 2
	}
	return 6*len(s) + 2
}

// appendCache appends the cache file holding entries, which are sorted by
// key, to b. A NaN or infinite metric is an error: JSON cannot hold it.
func appendCache(b []byte, entries []savedEntry) ([]byte, error) {
	b = append(b, cacheVersionHead...)
	b = appendString(b, costModelVersion)
	b = append(b, cacheEntriesHead...)
	for i, c := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		b = appendString(b, c.key)
		b = append(b, ':')
		var ok bool
		if b, ok = appendMetrics(b, c.m); !ok {
			return nil, fmt.Errorf("entry %q: a metric is NaN or infinite", c.key)
		}
	}
	return append(b, cacheTail...), nil
}

// appendMetrics appends m's array; ok is false if a value is not finite.
func appendMetrics(b []byte, m *Metrics) (_ []byte, ok bool) {
	ok = true
	b = append(b, '[')
	for _, v := range columns(m) {
		b = appendValue(b, v, &ok)
		b = append(b, ',')
	}
	if m.PerTenant == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range m.PerTenant {
			t := &m.PerTenant[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = appendString(b, t.Tenant)
			for _, v := range tenantColumns(t) {
				b = append(b, ',')
				b = appendValue(b, v, &ok)
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	return append(b, ']'), ok
}

// appendValue appends the number or boolean v points at, clearing ok if
// it is a NaN or an infinity.
func appendValue(b []byte, v any, ok *bool) []byte {
	switch v := v.(type) {
	case *float64:
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			*ok = false
		}
		return strconv.AppendFloat(b, *v, 'g', -1, 64)
	case *int:
		return strconv.AppendInt(b, int64(*v), 10)
	}
	return strconv.AppendBool(b, *v.(*bool))
}

// appendString appends s quoted. A plain string is copied; any other is
// quoted by encoding/json, after its invalid UTF-8 is replaced, so that
// what is read back is written back the same.
func appendString(b []byte, s string) []byte {
	if !plain(s) {
		q, _ := json.Marshal(strings.ToValidUTF8(s, "\uFFFD")) // a string always marshals
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// decodeCache reads a cache file's entries, in file order. The entries
// are only of use when the error is nil.
func decodeCache(data []byte) (*blocks[loadedEntry], error) {
	r := cacheReader{data: data}
	if !r.next(cacheVersionHead) {
		return nil, fmt.Errorf("not a version %s cache file", cacheFileVersion)
	}
	if cm := r.str(); r.err == nil && cm != costModelVersion {
		return nil, fmt.Errorf("written by cost model %q, this binary is %q", cm, costModelVersion)
	}
	r.lit(cacheEntriesHead)
	in := new(blocks[loadedEntry])
	for more := !r.next(cacheTail); more && r.err == nil; {
		r.lit("\n")
		c := in.next()
		c.key = r.str()
		if in.n > 1 && r.err == nil && c.key <= in.at(in.n-2).key {
			r.fail("key not after the one before it")
		}
		r.lit(":")
		r.metrics(&c.ent.m)
		if more = r.next(","); !more {
			r.lit(cacheTail)
		}
	}
	if r.err == nil && r.pos != len(data) {
		r.fail("trailing data")
	}
	return in, r.err
}

// cacheReader scans a cache file. err holds the first error; once it is
// set every method returns at once.
type cacheReader struct {
	data []byte
	pos  int
	err  error
}

func (r *cacheReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("line %d: %s", 1+bytes.Count(r.data[:r.pos], []byte{'\n'}), msg)
	}
}

// next consumes s if it comes next.
func (r *cacheReader) next(s string) bool {
	if r.err != nil || len(r.data)-r.pos < len(s) || string(r.data[r.pos:r.pos+len(s)]) != s {
		return false
	}
	r.pos += len(s)
	return true
}

// lit consumes s, which must come next.
func (r *cacheReader) lit(s string) {
	if r.err == nil && !r.next(s) {
		r.fail("expected " + strconv.Quote(s))
	}
}

// str reads a quoted string. One of asIs bytes is copied out; any other
// is unquoted by encoding/json.
func (r *cacheReader) str() string {
	if r.err != nil {
		return ""
	}
	if r.pos == len(r.data) || r.data[r.pos] != '"' {
		r.fail("expected a string")
		return ""
	}
	i := r.pos + 1
	for i < len(r.data) && asIs[r.data[i]] {
		i++
	}
	if i < len(r.data) && r.data[i] == '"' {
		s := string(r.data[r.pos+1 : i])
		r.pos = i + 1
		return s
	}
	return r.unquote()
}

// unquote reads the string at pos as json.Unmarshal decodes it. It is a
// function of its own so that str's plain strings stay off the heap
// until they are copied.
func (r *cacheReader) unquote() string {
	end := r.pos + 1
	for ; end < len(r.data) && r.data[end] != '"'; end++ {
		if r.data[end] == '\\' {
			end++
		}
	}
	var s string
	if end >= len(r.data) || json.Unmarshal(r.data[r.pos:end+1], &s) != nil {
		r.fail("invalid string")
		return ""
	}
	r.pos = end + 1
	return s
}

func (r *cacheReader) metrics(m *Metrics) {
	r.lit("[")
	for _, v := range columns(m) {
		r.value(v)
		r.lit(",")
	}
	m.PerTenant = r.tenants()
	r.lit("]")
}

// tenants reads a PerTenant array: null is nil, [] is empty and not nil.
func (r *cacheReader) tenants() []TenantSLO {
	if r.next("null") {
		return nil
	}
	r.lit("[")
	s := []TenantSLO{}
	if r.next("]") {
		return s
	}
	for r.err == nil {
		s = append(s, TenantSLO{})
		t := &s[len(s)-1]
		r.lit("[")
		t.Tenant = r.str()
		for _, v := range tenantColumns(t) {
			r.lit(",")
			r.value(v)
		}
		r.lit("]")
		if !r.next(",") {
			r.lit("]")
			break
		}
	}
	return s
}

// value reads the number or boolean v points at. A float must be finite
// and an int must fit the platform's int.
func (r *cacheReader) value(v any) {
	var err error
	switch v := v.(type) {
	case *float64:
		*v, err = strconv.ParseFloat(string(r.number()), 64)
	case *int:
		var n int64
		n, err = strconv.ParseInt(string(r.number()), 10, strconv.IntSize)
		*v = int(n)
	default:
		b := v.(*bool)
		if *b = r.next("true"); !*b {
			r.lit("false")
		}
	}
	if err != nil {
		r.fail("bad number")
	}
}

// number returns the bytes of the number at pos.
func (r *cacheReader) number() []byte {
	i := r.pos
	for i < len(r.data) && numeric[r.data[i]] {
		i++
	}
	tok := r.data[r.pos:i]
	r.pos = i
	return tok
}

// readAll reads r to its end, sized up front when r reports its length
// (bytes.Reader, strings.Reader, bytes.Buffer).
func readAll(r io.Reader) ([]byte, error) {
	n := 512
	if l, ok := r.(interface{ Len() int }); ok {
		n = l.Len() + 1 // room for the read that meets EOF
	}
	b := make([]byte, 0, n)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
