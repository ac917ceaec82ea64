//go:build !amd64

package prf

// useSHANI is always false off amd64: the portable kernel drives the
// standard library's hashes, which carry this architecture's own hardware
// paths.
var useSHANI = false

func block1SHANI(h *[5]uint32, p *[hmacBlockSize]byte) { panic("prf: no SHA-NI kernel on this GOARCH") }

func block256SHANI(h *[8]uint32, p *[hmacBlockSize]byte) {
	panic("prf: no SHA-NI kernel on this GOARCH")
}
