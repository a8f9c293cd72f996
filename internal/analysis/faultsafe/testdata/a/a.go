// Package a is the faultsafe analysistest fixture.
package a

import (
	"context"

	"repro/internal/fault"
)

// Seam is ordinary service-layer code: failpoints are welcome here.
func Seam(ctx context.Context) error {
	if err := fault.Point("store.disk.write"); err != nil {
		return err
	}
	return fault.PointCtx(ctx, "service.queue.stall")
}

//hatt:noalloc
func Kernel(dst, src []uint64) {
	if err := fault.Point("kernel.xor"); err != nil { // want `failpoint fault.Point called inside //hatt:noalloc Kernel`
		return
	}
	for i := range dst {
		dst[i] ^= src[i]
	}
	_ = fault.Mutate("kernel.xor", nil) // want `failpoint fault.Mutate called inside //hatt:noalloc Kernel`
}

//hatt:noalloc
func Clean(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}
