package prf

// useSHANI selects the SHA-NI compression kernels. It is fixed from CPUID at
// start-up; tests flip it to cover the portable kernel on the same machine.
var useSHANI = hasSHANI()

// hasSHANI reports whether the CPU has the SHA extensions plus the SSSE3
// (PSHUFB, PALIGNR) and SSE4.1 (PINSRD, PEXTRD, PBLENDW) instructions the
// kernels use.
func hasSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		ssse3 = 1 << 9  // CPUID.1:ECX
		sse41 = 1 << 19 // CPUID.1:ECX
		sha   = 1 << 29 // CPUID.(EAX=7,ECX=0):EBX
	)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func block1SHANI(h *[5]uint32, p *[hmacBlockSize]byte)

//go:noescape
func block256SHANI(h *[8]uint32, p *[hmacBlockSize]byte)
