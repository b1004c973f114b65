package serve

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestRequestSlabEntrySize pins the request slab entry's layout: inDecode
// packs into prefixSlot's alignment padding, so the struct carries no
// avoidable holes, and the tenant and the arrival time live in the ledger,
// so it is 128 bytes. 128 bytes assumes 8-byte words, which every tested
// platform here has.
func TestRequestSlabEntrySize(t *testing.T) {
	if unsafe.Sizeof(int(0)) != 8 {
		t.Skip("layout pinned for 64-bit words only")
	}
	if got := unsafe.Sizeof(request{}); got != 128 {
		t.Errorf("request slab entry is %d bytes, want 128 (a field was added or reordered)", got)
	}
}

// TestRequestSlabHoldsNoPointers: the slab is allocated pointer-free, so
// the garbage collector never scans it and copying an entry passes
// through no write barrier. A string, slice, map or pointer field in
// request would undo both.
func TestRequestSlabHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeFor[request]()
	for i := range typ.NumField() {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int32, reflect.Float64, reflect.Bool:
		default:
			t.Errorf("request.%s is a %v: the slab entry must hold only plain numbers", f.Name, f.Type)
		}
	}
}
