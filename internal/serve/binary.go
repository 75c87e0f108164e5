package serve

import (
	"sync"

	"freewayml/internal/wire"
)

// BinaryContentType selects the binary batch frame (internal/wire) on the
// process and infer endpoints. JSON remains the default and the
// compatibility path.
const BinaryContentType = "application/x-freeway-batch"

// framePool recycles decoded-frame storage across requests, train and infer
// alike: a warm frame re-decodes a same-shaped batch with zero allocations.
// The learner copies whatever rows it keeps, so a frame goes back whole.
var framePool = sync.Pool{New: func() any { return new(wire.Frame) }}

func getFrame() *wire.Frame { return framePool.Get().(*wire.Frame) }

func putFrame(f *wire.Frame) { framePool.Put(f) }
