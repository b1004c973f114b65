package dead

import (
	"testing"

	"fixture/internal/testsupport"
)

func TestOnlyCaller(t *testing.T) {
	TestOnly()
	testsupport.Helper().Use()
}
