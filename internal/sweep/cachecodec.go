package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// The memo cache file is the JSON that json.Encoder with SetIndent("",
// " ") writes for
//
//	struct {
//		Version   int                `json:"version"`
//		CostModel string             `json:"cost_model"`
//		Entries   map[string]Metrics `json:"entries"`
//	}
//
// This file writes and reads exactly that schema without reflection. The
// writer reproduces encoding/json's bytes: every field of every struct in
// declaration order, map keys sorted, encoding/json's float format and
// string escaping, and null for a nil PerTenant. The reader accepts only
// what json.Unmarshal accepts and decodes it to the same values, and it
// is stricter: an unknown field, a null other than a nil PerTenant or
// trailing data is an error.

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

// Bounds on the encoding, for sizing the output once: the text of a
// Metrics with every number at its longest (-2.2250738585072014e-308,
// math.MinInt) and a nil PerTenant, what each tenant adds, and the file's
// header and trailer. Quoted strings are counted apart, by quotedLen.
const (
	metricsLen = 961
	tenantLen  = 196
	fileLen    = 74
)

// cacheSize bounds the bytes appendCache writes for entries.
func cacheSize(entries []savedEntry) int {
	n := fileLen
	for _, c := range entries {
		n += quotedLen(c.key) + metricsLen
		for _, t := range c.m.PerTenant {
			n += quotedLen(t.Tenant) + tenantLen
		}
	}
	return n
}

// writeAsIs marks the bytes encoding/json writes unescaped in a string:
// printable ASCII but for " \ < > and &. readAsIs marks the bytes a JSON
// string holds as they are: all but " and \, control bytes and non-ASCII.
var writeAsIs, readAsIs = func() (w, r [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		r[c] = c != '"' && c != '\\'
		w[c] = r[c] && c != '<' && c != '>' && c != '&' && c != 0x7f
	}
	return w, r
}()

// plain reports whether encoding/json writes s unescaped.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !writeAsIs[s[i]] {
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
// key, to b. A NaN or infinite metric is an error, as in encoding/json.
func appendCache(b []byte, entries []savedEntry) ([]byte, error) {
	w := cacheWriter{b: b}
	w.open('{')
	w.int(1, "version", cacheFileVersion)
	w.name(1, "cost_model")
	w.str(costModelVersion)
	w.name(1, "entries")
	w.open('{')
	for _, c := range entries {
		w.next(2)
		w.str(c.key)
		w.b = append(w.b, ": "...)
		w.metrics(c.m)
		if w.bad {
			return nil, fmt.Errorf("entry %q: unsupported value %v", c.key, w.badValue)
		}
	}
	w.close(1, '}')
	w.close(0, '}')
	return append(w.b, '\n'), nil
}

// cacheWriter appends indented JSON. first is set while the object or
// array just opened has no member yet; bad records a value JSON cannot
// hold.
type cacheWriter struct {
	b        []byte
	first    bool
	bad      bool
	badValue float64
}

// indent is a newline and enough spaces for the deepest member.
const indent = "\n      "

func (w *cacheWriter) open(c byte) {
	w.b = append(w.b, c)
	w.first = true
}

// close ends the object or array opened at depth: an empty one stays on
// its line, as encoding/json writes {} and [].
func (w *cacheWriter) close(depth int, c byte) {
	if !w.first {
		w.b = append(w.b, indent[:1+depth]...)
	}
	w.b = append(w.b, c)
	w.first = false
}

// next starts a member at depth: a comma after the previous member, a
// newline and the indentation.
func (w *cacheWriter) next(depth int) {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.b = append(w.b, indent[:1+depth]...)
	w.first = false
}

// name starts a struct field at depth; field names need no escaping.
func (w *cacheWriter) name(depth int, name string) {
	w.next(depth)
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *cacheWriter) int(depth int, name string, v int) {
	w.name(depth, name)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

// float writes f as encoding/json does: the shortest decimal that round
// trips, in exponent form below 1e-6 or from 1e21 on, with a one-digit
// negative exponent not padded.
func (w *cacheWriter) float(depth int, name string, f float64) {
	w.name(depth, name)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if !w.bad {
			w.bad, w.badValue = true, f
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// str writes s quoted. A plain string is copied; any other is quoted by
// encoding/json itself.
func (w *cacheWriter) str(s string) {
	if !plain(s) {
		q, _ := json.Marshal(s) // a string always marshals
		w.b = append(w.b, q...)
		return
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// metrics writes m as the value of an entry at depth 2, its fields in
// declaration order.
func (w *cacheWriter) metrics(m *Metrics) {
	w.open('{')
	w.float(3, "Time", m.Time)
	w.float(3, "MFU", m.MFU)
	w.name(3, "Memory")
	w.open('{')
	w.float(4, "Parameters", m.Memory.Parameters)
	w.float(4, "Gradients", m.Memory.Gradients)
	w.float(4, "Optimizer", m.Memory.Optimizer)
	w.float(4, "Activations", m.Memory.Activations)
	w.close(3, '}')
	w.name(3, "Footprint")
	w.open('{')
	w.float(4, "Weights", m.Footprint.Weights)
	w.float(4, "KVCache", m.Footprint.KVCache)
	w.close(3, '}')
	w.name(3, "Fits")
	w.b = strconv.AppendBool(w.b, m.Fits)
	w.float(3, "TTFTP95", m.TTFTP95)
	w.float(3, "TPOTP95", m.TPOTP95)
	w.float(3, "TokensPerSec", m.TokensPerSec)
	w.int(3, "Preemptions", m.Preemptions)
	w.int(3, "RecomputedTokens", m.RecomputedTokens)
	w.float(3, "KVUtil", m.KVUtil)
	w.int(3, "KVTransfers", m.KVTransfers)
	w.float(3, "TransferTime", m.TransferTime)
	w.int(3, "PrefixHits", m.PrefixHits)
	w.int(3, "PrefixSavedTokens", m.PrefixSavedTokens)
	w.int(3, "KVSwapOuts", m.KVSwapOuts)
	w.int(3, "KVSwapIns", m.KVSwapIns)
	w.float(3, "SwapTime", m.SwapTime)
	w.name(3, "PerTenant")
	if m.PerTenant == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for i := range m.PerTenant {
			t := &m.PerTenant[i]
			w.next(4)
			w.open('{')
			w.name(5, "Tenant")
			w.str(t.Tenant)
			w.int(5, "Requests", t.Requests)
			w.float(5, "TTFTP95", t.TTFTP95)
			w.float(5, "TPOTP95", t.TPOTP95)
			w.float(5, "E2EP95", t.E2EP95)
			w.close(4, '}')
		}
		w.close(3, ']')
	}
	w.close(2, '}')
}

// decodedCache is what a cache file holds. hasEntries tells an empty
// "entries" object from a missing one.
type decodedCache struct {
	version    int
	costModel  string
	entries    blocks[loadedEntry]
	hasEntries bool
}

// decodeCache reads a cache file. Of duplicate names the last wins, and a
// repeated object or array is decoded into the value before it, as
// json.Unmarshal does.
func decodeCache(data []byte) (*decodedCache, error) {
	r := cacheReader{data: data}
	c := new(decodedCache)
	for ok := r.open('{', '}'); ok; ok = r.more('}') {
		switch name := r.name(); string(name) {
		case "version":
			c.version = r.int()
		case "cost_model":
			c.costModel = string(r.str())
		case "entries":
			c.hasEntries = true
			for ok := r.open('{', '}'); ok; ok = r.more('}') {
				c.entries.add(loadedEntry{key: string(r.name())})
				r.metrics(&c.entries.at(c.entries.n - 1).ent.m)
			}
		default:
			r.unknown(name)
		}
	}
	r.space()
	if r.err == nil && r.pos != len(data) {
		r.fail("trailing data")
	}
	if r.err != nil {
		return nil, r.err
	}
	return c, nil
}

// cacheReader scans the cache file. err holds the first error; once it
// is set every method returns at once and every member loop ends.
type cacheReader struct {
	data []byte
	pos  int
	err  error
}

func (r *cacheReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d", msg, r.pos)
	}
}

func (r *cacheReader) unknown(name []byte) {
	r.fail(fmt.Sprintf("unknown field %q", name))
}

// space skips JSON whitespace.
func (r *cacheReader) space() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *cacheReader) peek() byte {
	r.space()
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// open consumes the c that opens an object or array and reports whether
// a member follows before its end.
func (r *cacheReader) open(c, end byte) bool {
	if r.err != nil {
		return false
	}
	if r.peek() != c {
		r.fail("expected " + string(c))
		return false
	}
	r.pos++
	if r.peek() == end {
		r.pos++
		return false
	}
	return true
}

// more consumes what follows a member and reports whether another member
// follows before end.
func (r *cacheReader) more(end byte) bool {
	if r.err != nil {
		return false
	}
	switch r.peek() {
	case ',':
		r.pos++
		return true
	case end:
		r.pos++
		return false
	}
	r.fail("expected , or " + string(end))
	return false
}

// name reads an object member's name and the colon after it.
func (r *cacheReader) name() []byte {
	s := r.str()
	if r.err == nil && r.peek() != ':' {
		r.fail("expected :")
		return nil
	}
	r.pos++
	return s
}

// str reads a string. One of readAsIs bytes is returned in place; any
// other is unquoted by encoding/json, so escapes and invalid UTF-8 decode
// as json.Unmarshal decodes them.
func (r *cacheReader) str() []byte {
	if r.err != nil {
		return nil
	}
	if r.peek() != '"' {
		r.fail("expected string")
		return nil
	}
	start, i := r.pos, r.pos+1
	for i < len(r.data) && readAsIs[r.data[i]] {
		i++
	}
	switch {
	case i == len(r.data):
		r.fail("unterminated string")
		return nil
	case r.data[i] == '"':
		r.pos = i + 1
		return r.data[start+1 : i]
	case r.data[i] < ' ':
		r.pos = i
		r.fail("control character in string")
		return nil
	}
	return r.quoted(start)
}

// quoted unquotes the string starting at start with encoding/json.
func (r *cacheReader) quoted(start int) []byte {
	end := start + 1
	for ; end < len(r.data) && r.data[end] != '"'; end++ {
		if r.data[end] == '\\' {
			end++
		}
	}
	if end >= len(r.data) {
		r.fail("unterminated string")
		return nil
	}
	var s string
	if err := json.Unmarshal(r.data[start:end+1], &s); err != nil {
		r.fail("invalid string")
		return nil
	}
	r.pos = end + 1
	return []byte(s)
}

// number reads a number, checked against JSON's grammar.
func (r *cacheReader) number() []byte {
	if r.err != nil {
		return nil
	}
	r.space()
	d, i := r.data, r.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		r.fail("expected number")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		j := digits(d, i+1)
		if j == i+1 {
			r.fail("expected digit")
			return nil
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digits(d, i); j > i {
			i = j
		} else {
			r.fail("expected digit")
			return nil
		}
	}
	tok := d[r.pos:i]
	r.pos = i
	return tok
}

// digits returns the index of the first non-digit of d from i on.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

func (r *cacheReader) float() float64 {
	tok := r.number()
	if r.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail("number " + string(tok) + " out of range")
	}
	return f
}

// int reads an int as encoding/json does: an integer literal that fits
// the platform's int.
func (r *cacheReader) int() int {
	tok := r.number()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		r.fail("number " + string(tok) + " is not an int")
	}
	return int(n)
}

// literal consumes word if it is next.
func (r *cacheReader) literal(word string) bool {
	if r.err != nil {
		return false
	}
	r.space()
	if end := r.pos + len(word); end <= len(r.data) && string(r.data[r.pos:end]) == word {
		r.pos = end
		return true
	}
	return false
}

func (r *cacheReader) boolean() bool {
	if r.literal("true") {
		return true
	}
	if !r.literal("false") {
		r.fail("expected true or false")
	}
	return false
}

func (r *cacheReader) metrics(m *Metrics) {
	for ok := r.open('{', '}'); ok; ok = r.more('}') {
		switch name := r.name(); string(name) {
		case "Time":
			m.Time = r.float()
		case "MFU":
			m.MFU = r.float()
		case "Memory":
			for ok := r.open('{', '}'); ok; ok = r.more('}') {
				switch name := r.name(); string(name) {
				case "Parameters":
					m.Memory.Parameters = r.float()
				case "Gradients":
					m.Memory.Gradients = r.float()
				case "Optimizer":
					m.Memory.Optimizer = r.float()
				case "Activations":
					m.Memory.Activations = r.float()
				default:
					r.unknown(name)
				}
			}
		case "Footprint":
			for ok := r.open('{', '}'); ok; ok = r.more('}') {
				switch name := r.name(); string(name) {
				case "Weights":
					m.Footprint.Weights = r.float()
				case "KVCache":
					m.Footprint.KVCache = r.float()
				default:
					r.unknown(name)
				}
			}
		case "Fits":
			m.Fits = r.boolean()
		case "TTFTP95":
			m.TTFTP95 = r.float()
		case "TPOTP95":
			m.TPOTP95 = r.float()
		case "TokensPerSec":
			m.TokensPerSec = r.float()
		case "Preemptions":
			m.Preemptions = r.int()
		case "RecomputedTokens":
			m.RecomputedTokens = r.int()
		case "KVUtil":
			m.KVUtil = r.float()
		case "KVTransfers":
			m.KVTransfers = r.int()
		case "TransferTime":
			m.TransferTime = r.float()
		case "PrefixHits":
			m.PrefixHits = r.int()
		case "PrefixSavedTokens":
			m.PrefixSavedTokens = r.int()
		case "KVSwapOuts":
			m.KVSwapOuts = r.int()
		case "KVSwapIns":
			m.KVSwapIns = r.int()
		case "SwapTime":
			m.SwapTime = r.float()
		case "PerTenant":
			m.PerTenant = r.tenants(m.PerTenant)
		default:
			r.unknown(name)
		}
	}
}

// tenants reads a PerTenant array into s as json.Unmarshal does: null is
// nil, [] is empty and not nil, and each element is decoded into the one
// already at its index, within the slice's capacity.
func (r *cacheReader) tenants(s []TenantSLO) []TenantSLO {
	if r.literal("null") {
		return nil
	}
	i := 0
	for ok := r.open('[', ']'); ok; ok = r.more(']') {
		if i == cap(s) {
			s = append(s[:cap(s)], TenantSLO{})
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		r.tenant(&s[i])
		i++
	}
	if i == 0 {
		return []TenantSLO{}
	}
	return s[:i]
}

func (r *cacheReader) tenant(t *TenantSLO) {
	for ok := r.open('{', '}'); ok; ok = r.more('}') {
		switch name := r.name(); string(name) {
		case "Tenant":
			t.Tenant = string(r.str())
		case "Requests":
			t.Requests = r.int()
		case "TTFTP95":
			t.TTFTP95 = r.float()
		case "TPOTP95":
			t.TPOTP95 = r.float()
		case "E2EP95":
			t.E2EP95 = r.float()
		default:
			r.unknown(name)
		}
	}
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
