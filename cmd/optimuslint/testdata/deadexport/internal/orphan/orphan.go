// Package orphan is imported by nothing, tests included.
package orphan

// Orphan is referenced by nothing: R1.
func Orphan() {}
