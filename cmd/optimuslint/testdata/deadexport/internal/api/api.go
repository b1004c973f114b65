// Package api holds a type the root API reaches only through aliases.
package api

// Options is reached from the root through fixture.Options and
// mid.Options.
type Options struct {
	Inner Reached
}

// Reached is reached from the root only through Options' field.
type Reached struct{}

// Get is called only here, but Reached is API: exempt.
func (Reached) Get() int { return 1 }

// Total is called by nobody, but Options is API: exempt.
func (o Options) Total() int { return o.Inner.Get() }

// Hidden is not reachable from the root API.
type Hidden struct{}

// Get is called only here: R2.
func (Hidden) Get() int { return 2 }

var hiddenTotal = Hidden{}.Get()
