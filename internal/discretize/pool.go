package discretize

import (
	"sync"

	"hipo/internal/geom"
)

// Buffer pools for the per-task generation hot path: position buffers
// (one live per in-flight task) and segment / obstacle-index scratch (one
// per device-position call). Pooling is invisible to output — buffers are
// always truncated to zero length before reuse and their contents copied
// out (deduper, candidate Covers) before release — and reuses surface in
// the pool_reuse tracer counter.
var (
	posBufs slicePool[geom.Vec]
	segBufs slicePool[geom.Segment]
	obsBufs slicePool[int32]
)

// slicePool recycles slice buffers of one element type.
type slicePool[T any] struct{ p sync.Pool }

// get returns an empty buffer and whether it was reused from the pool (a
// fresh buffer is just nil: append allocates on demand).
func (sp *slicePool[T]) get() ([]T, bool) {
	if v := sp.p.Get(); v != nil {
		return (*v.(*[]T))[:0], true
	}
	return nil, false
}

func (sp *slicePool[T]) put(buf []T) {
	if cap(buf) > 0 {
		sp.p.Put(&buf)
	}
}
