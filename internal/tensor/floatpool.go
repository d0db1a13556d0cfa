package tensor

import "sync"

// The float pool is one process-wide free list of exact-length []float64
// vectors for model-sized buffers whose last reader is known: the transport
// server's pipe-delivered updates, released when their round closes; a pipe
// frame's queued copy, released by the Recv that copies it into the
// receiver's offer; and a transport client's gradients, released when its
// local steps end. It has no size, cap or setting. It holds, per length, the
// vectors put back and not yet taken again — never more than its callers held
// at once — and GetFloats never returns a vector of another length.
var (
	floatPoolMu sync.Mutex
	floatPool   = map[int][][]float64{}
)

// GetFloats returns a vector of length n with unspecified contents: the one
// last put back at that length, or a new one.
func GetFloats(n int) []float64 {
	floatPoolMu.Lock()
	free := floatPool[n]
	if k := len(free); k > 0 {
		v := free[k-1]
		free[k-1] = nil
		floatPool[n] = free[:k-1]
		floatPoolMu.Unlock()
		return v
	}
	floatPoolMu.Unlock()
	return make([]float64, n)
}

// PutFloats hands v back for a later GetFloats(len(v)). The caller gives up v:
// nothing may read or write it afterwards, through any slice of its array.
func PutFloats(v []float64) {
	if len(v) == 0 {
		return
	}
	floatPoolMu.Lock()
	floatPool[len(v)] = append(floatPool[len(v)], v)
	floatPoolMu.Unlock()
}
