// Package testsupport is imported only by test files, whose references
// count for it.
package testsupport

// Helper is called from a test file: live.
func Helper() Kit { return Kit{} }

// Kit is the result of Helper.
type Kit struct{}

// Use is called from a test file: live.
func (Kit) Use() {}

// Spare is called by no test: R1.
func (Kit) Spare() {}

// Unneeded is called by no test: R1.
func Unneeded() {}
