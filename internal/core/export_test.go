package core

// SetTestStageWidth exposes the stage-width seam to the external test
// package, which (unlike package core's own tests) can import
// internal/chaos without an import cycle. 0 restores the width function.
func SetTestStageWidth(w int) { testStageWidth.Store(int32(w)) }
