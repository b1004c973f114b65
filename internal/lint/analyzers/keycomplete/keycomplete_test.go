package keycomplete_test

import (
	"testing"

	"optimus/internal/lint/analysistest"
	"optimus/internal/lint/analyzers/keycomplete"
)

func TestKeyComplete(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), keycomplete.Analyzer, "sweep", "identity", "nopoint")
}
