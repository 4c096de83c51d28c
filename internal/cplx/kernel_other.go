//go:build !amd64

package cplx

// useAVX2 is false off amd64, where the Go loops are the only kernels.
const useAVX2 = false

func mulVec(dst, w, x []complex128) { mulVecGo(dst, w, x) }

func addScaledConjBatch(dst, a, x []complex128) { addScaledConjBatchGo(dst, a, x) }
