//go:build !amd64

package cplx

// useAVX2 is false off amd64, where the Go loops are the only kernels.
const useAVX2 = false

func mulVec(dst, w, x []complex128) { mulVecGo(dst, w, x) }

func addScaledConj(dst []complex128, a complex128, x []complex128) { addScaledConjGo(dst, a, x) }
