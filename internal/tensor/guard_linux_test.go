package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// edgeFloats returns n float64s whose last element ends where an
// inaccessible page begins, so a kernel that reads one element past the
// slice faults instead of quietly reading a neighbour's memory.
func edgeFloats(t testing.TB, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	body := (8*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[body:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[body-8*n])), n)
}
