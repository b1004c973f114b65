// Package identity is a keycomplete fixture with both identities: the
// string key and the comparable ident the engine deduplicates on, which
// compares the tokens tokensOf derives. One field feeds the key but not
// ident and one ident but not the key — the seeded violations.
package identity

import "strconv"

type tokens struct {
	model string
}

type Point struct {
	Model string
	Batch int
	Seed  int64   // want `Point\.Seed is not folded into \[ident tokensOf\]: two candidates differing only in it would be deduplicated as one`
	Rate  float64 // want `Point\.Rate is not folded into \[Key\]: two candidates differing only in it would alias one memo entry`
	tok   tokens
}

func tokensOf(p *Point) tokens {
	return tokens{model: p.Model}
}

type ident struct {
	tok   tokens
	batch int
	rate  float64
}

func (p *Point) ident() ident {
	return ident{tok: p.tok, batch: p.Batch, rate: p.Rate}
}

func (p Point) Key() string {
	p.tok = tokensOf(&p)
	return buildKey(p)
}

func buildKey(p Point) string {
	return p.tok.model + "|" + strconv.Itoa(p.Batch) + "|" + strconv.FormatInt(p.Seed, 10)
}
