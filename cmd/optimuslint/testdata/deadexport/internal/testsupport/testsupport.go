// Package testsupport is imported only by test files: exempt.
package testsupport

// Helper is called only from a test file.
func Helper() {}
