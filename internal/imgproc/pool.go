package imgproc

import (
	"sync"
	"sync/atomic"
)

// Buffer pooling. The streaming pipeline processes every frame through the
// same chain of kernels, so the intermediate images (filter scratch, flow
// accumulators, pyramid temporaries) have a handful of fixed sizes that are
// allocated and dropped once per frame — classic allocation churn. The pool
// recycles them: GetImage hands out a zeroed image exactly like NewImage,
// and PutImage returns one whose pixels are no longer referenced.
//
// Pooling is purely an allocation optimization: a pooled image is zeroed on
// Get, so results are bit-identical to freshly allocated images.

// imagePools maps a pixel count to a *sync.Pool of []float32 of that length.
var imagePools sync.Map

// poolGets, poolHits and poolPuts count pool traffic for the metrics layer.
var poolGets, poolHits, poolPuts atomic.Int64

// PoolStats reports cumulative pool traffic: total GetImage calls, how many
// were served by recycled buffers, and total PutImage calls.
func PoolStats() (gets, hits, puts int64) {
	return poolGets.Load(), poolHits.Load(), poolPuts.Load()
}

// GetImage returns a zero-filled w×h image, recycling a previously Put
// buffer of the same size when one is available. It is equivalent to
// NewImage in every observable way.
func GetImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		return NewImage(w, h) // panics with the standard message
	}
	poolGets.Add(1)
	n := w * h
	if p, ok := imagePools.Load(n); ok {
		if buf := p.(*sync.Pool).Get(); buf != nil {
			poolHits.Add(1)
			pix := buf.([]float32)
			clear(pix)
			return &Image{W: w, H: h, Pix: pix}
		}
	}
	return &Image{W: w, H: h, Pix: make([]float32, n)}
}

// PutImage returns an image's pixel buffer to the pool. The caller must not
// touch im (or retain im.Pix) afterwards. Nil images and images whose buffer
// has been resliced are ignored.
func PutImage(im *Image) {
	if im == nil || len(im.Pix) != im.W*im.H || len(im.Pix) == 0 {
		return
	}
	poolPuts.Add(1)
	n := len(im.Pix)
	p, ok := imagePools.Load(n)
	if !ok {
		p, _ = imagePools.LoadOrStore(n, &sync.Pool{})
	}
	pix := im.Pix
	im.Pix = nil // poison the handle so a use-after-Put fails loudly
	p.(*sync.Pool).Put(pix)
}

// FreeList holds buffers a kernel finished with for its next calls. It is a
// plain free list, not a sync.Pool: a pool's per-P slot misses whenever a
// worker runs on another P than the one that put the last buffer back, and
// the miss reallocates. A list holds as many buffers as ever ran at once.
// Buffers come back as they were put, not cleared.
type FreeList[T any] struct {
	mu   sync.Mutex
	list []*T
}

// Get takes a buffer off l, or makes one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.list); n > 0 {
		v := l.list[n-1]
		l.list = l.list[:n-1]
		return v
	}
	return new(T)
}

// Put returns buffers to l.
func (l *FreeList[T]) Put(vs ...*T) {
	l.mu.Lock()
	l.list = append(l.list, vs...)
	l.mu.Unlock()
}

// Grow returns s resliced to n entries. When s is too short it reallocates
// with a quarter more room, so that a buffer a little larger than any before
// it does not reallocate again.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}
