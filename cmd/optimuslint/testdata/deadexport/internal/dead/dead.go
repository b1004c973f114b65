// Package dead holds one declaration per rule and exemption.
package dead

// Used is called from the root: live.
func Used() string { return Local() }

// ExtOnly is called only from the second module: live.
func ExtOnly() {}

// Unused is referenced by nothing: R1.
func Unused() {}

// UnusedType is referenced by nothing: R1.
type UnusedType int

// TestOnly is called only from a test file: R1.
func TestOnly() {}

// Local is called only from this package: R2.
func Local() string { return Holder{}.Local() }

// Holder is used by the root, but is not part of its exported API.
type Holder struct{}

// Local is called only from this package: R2.
func (Holder) Local() string { return "" }

// Name is called through the root's namer interface: exempt.
func (Holder) Name() string { return "" }

// String satisfies fmt.Stringer: exempt.
func (Holder) String() string { return "" }

// Kept is referenced by nothing, with a reason.
//
//lint:export the fixture's justified directive
func Kept() {}

// BareExport is referenced by nothing, under a bare directive.
//
//lint:export
func BareExport() {}
