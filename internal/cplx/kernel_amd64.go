package cplx

// useAVX2 is set once at start-up from CPUID and XGETBV: the CPU has AVX2
// and the OS saves the YMM registers. Without it the Go loops run.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// mulRowPairsAVX2 writes the row-major matrix w times x into dst, two rows
// per pass. len(dst) must be even and len(w) == len(dst)·len(x).
//
//go:noescape
func mulRowPairsAVX2(dst, w, x []complex128)

// addScaledConjBatchAVX2 adds Σ_k a[k]·conj(x[k·len(dst)+i]) to dst[i],
// summing k in order. len(x) must be len(a)·len(dst).
//
//go:noescape
func addScaledConjBatchAVX2(dst, a, x []complex128)

func mulVec(dst, w, x []complex128) {
	if useAVX2 {
		n := len(dst) &^ 1
		mulRowPairsAVX2(dst[:n], w[:n*len(x)], x)
		dst, w = dst[n:], w[n*len(x):]
	}
	mulVecGo(dst, w, x)
}

func addScaledConjBatch(dst, a, x []complex128) {
	if useAVX2 {
		addScaledConjBatchAVX2(dst, a, x)
		return
	}
	addScaledConjBatchGo(dst, a, x)
}
