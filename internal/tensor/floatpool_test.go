package tensor

import "testing"

// The float pool hands back what was put back, at that exact length only.
func TestFloatPoolExactLength(t *testing.T) {
	const n = 1237 // a length no other test of this package pools
	v := GetFloats(n)
	if len(v) != n {
		t.Fatalf("GetFloats(%d) has length %d", n, len(v))
	}
	PutFloats(v)
	if w := GetFloats(n + 1); len(w) != n+1 || &w[0] == &v[0] {
		t.Fatalf("GetFloats(%d) returned the length-%d vector put back", n+1, n)
	}
	if w := GetFloats(n); &w[0] != &v[0] {
		t.Fatal("GetFloats did not reuse the vector put back")
	}
	if w := GetFloats(n); &w[0] == &v[0] {
		t.Fatal("GetFloats handed out one vector twice")
	}
	PutFloats(nil) // a no-op
}
