// SHA-NI compression kernels for the fixed-shape HMAC engine: one 64-byte
// block into a midstate per call, no length bookkeeping, no padding. They use
// SSE encodings only, so the CPUID probe in kernel_amd64.go needs SHA, SSSE3
// and SSE4.1 and nothing else.
//
// block1SHANI follows the round sequence of Intel's SHA extensions white paper
// (Gulley et al., "New Instructions Supporting the Secure Hash Algorithm on
// Intel Architecture Processors", 2013): four rotating message registers fed
// by SHA1MSG1/PXOR/SHA1MSG2, and two E registers that ping-pong through
// SHA1NEXTE.
//
// block256SHANI is the single-block form of blockSHANI in Go's
// crypto/internal/fips140/sha256/sha256block_amd64.s, with VEX moves replaced
// by their SSE forms and the round constants packed at a 16-byte stride:
//
// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

#include "textflag.h"

// func block1SHANI(h *[5]uint32, p *[64]byte)
TEXT ·block1SHANI(SB), NOSPLIT, $0-16
	MOVQ        h+0(FP), DI
	MOVQ        p+8(FP), SI

	// X0 = ABCD with A in the top lane, X1 = E in the top lane; X8/X9
	// keep the midstate for the final addition.
	MOVOU       (DI), X0
	PSHUFD      $0x1b, X0, X0
	PXOR        X1, X1
	PINSRD      $3, 16(DI), X1
	MOVO        X1, X8
	MOVO        X0, X9
	MOVOU       sha1Flip<>(SB), X7

	// rounds 0-3
	MOVOU       0(SI), X3
	PSHUFB      X7, X3
	PADDD       X3, X1
	MOVO        X0, X2
	SHA1RNDS4   $0, X1, X0

	// rounds 4-7
	MOVOU       16(SI), X4
	PSHUFB      X7, X4
	SHA1NEXTE   X4, X2
	MOVO        X0, X1
	SHA1RNDS4   $0, X2, X0
	SHA1MSG1    X4, X3

	// rounds 8-11
	MOVOU       32(SI), X5
	PSHUFB      X7, X5
	SHA1NEXTE   X5, X1
	MOVO        X0, X2
	SHA1RNDS4   $0, X1, X0
	SHA1MSG1    X5, X4
	PXOR        X5, X3

	// rounds 12-15
	MOVOU       48(SI), X6
	PSHUFB      X7, X6
	SHA1NEXTE   X6, X2
	MOVO        X0, X1
	SHA1MSG2    X6, X3
	SHA1RNDS4   $0, X2, X0
	SHA1MSG1    X6, X5
	PXOR        X6, X4

	// rounds 16-19
	SHA1NEXTE   X3, X1
	MOVO        X0, X2
	SHA1MSG2    X3, X4
	SHA1RNDS4   $0, X1, X0
	SHA1MSG1    X3, X6
	PXOR        X3, X5

	// rounds 20-23
	SHA1NEXTE   X4, X2
	MOVO        X0, X1
	SHA1MSG2    X4, X5
	SHA1RNDS4   $1, X2, X0
	SHA1MSG1    X4, X3
	PXOR        X4, X6

	// rounds 24-27
	SHA1NEXTE   X5, X1
	MOVO        X0, X2
	SHA1MSG2    X5, X6
	SHA1RNDS4   $1, X1, X0
	SHA1MSG1    X5, X4
	PXOR        X5, X3

	// rounds 28-31
	SHA1NEXTE   X6, X2
	MOVO        X0, X1
	SHA1MSG2    X6, X3
	SHA1RNDS4   $1, X2, X0
	SHA1MSG1    X6, X5
	PXOR        X6, X4

	// rounds 32-35
	SHA1NEXTE   X3, X1
	MOVO        X0, X2
	SHA1MSG2    X3, X4
	SHA1RNDS4   $1, X1, X0
	SHA1MSG1    X3, X6
	PXOR        X3, X5

	// rounds 36-39
	SHA1NEXTE   X4, X2
	MOVO        X0, X1
	SHA1MSG2    X4, X5
	SHA1RNDS4   $1, X2, X0
	SHA1MSG1    X4, X3
	PXOR        X4, X6

	// rounds 40-43
	SHA1NEXTE   X5, X1
	MOVO        X0, X2
	SHA1MSG2    X5, X6
	SHA1RNDS4   $2, X1, X0
	SHA1MSG1    X5, X4
	PXOR        X5, X3

	// rounds 44-47
	SHA1NEXTE   X6, X2
	MOVO        X0, X1
	SHA1MSG2    X6, X3
	SHA1RNDS4   $2, X2, X0
	SHA1MSG1    X6, X5
	PXOR        X6, X4

	// rounds 48-51
	SHA1NEXTE   X3, X1
	MOVO        X0, X2
	SHA1MSG2    X3, X4
	SHA1RNDS4   $2, X1, X0
	SHA1MSG1    X3, X6
	PXOR        X3, X5

	// rounds 52-55
	SHA1NEXTE   X4, X2
	MOVO        X0, X1
	SHA1MSG2    X4, X5
	SHA1RNDS4   $2, X2, X0
	SHA1MSG1    X4, X3
	PXOR        X4, X6

	// rounds 56-59
	SHA1NEXTE   X5, X1
	MOVO        X0, X2
	SHA1MSG2    X5, X6
	SHA1RNDS4   $2, X1, X0
	SHA1MSG1    X5, X4
	PXOR        X5, X3

	// rounds 60-63
	SHA1NEXTE   X6, X2
	MOVO        X0, X1
	SHA1MSG2    X6, X3
	SHA1RNDS4   $3, X2, X0
	SHA1MSG1    X6, X5
	PXOR        X6, X4

	// rounds 64-67
	SHA1NEXTE   X3, X1
	MOVO        X0, X2
	SHA1MSG2    X3, X4
	SHA1RNDS4   $3, X1, X0
	SHA1MSG1    X3, X6
	PXOR        X3, X5

	// rounds 68-71
	SHA1NEXTE   X4, X2
	MOVO        X0, X1
	SHA1MSG2    X4, X5
	SHA1RNDS4   $3, X2, X0
	PXOR        X4, X6

	// rounds 72-75
	SHA1NEXTE   X5, X1
	MOVO        X0, X2
	SHA1MSG2    X5, X6
	SHA1RNDS4   $3, X1, X0

	// rounds 76-79
	SHA1NEXTE   X6, X2
	MOVO        X0, X1
	SHA1RNDS4   $3, X2, X0

	// add the midstate back in
	SHA1NEXTE   X8, X1
	PADDD       X9, X0

	PSHUFD      $0x1b, X0, X0
	MOVOU       X0, (DI)
	PEXTRD      $3, X1, 16(DI)
	RET

// func block256SHANI(h *[8]uint32, p *[64]byte)
TEXT ·block256SHANI(SB), NOSPLIT, $0-16
	MOVQ        h+0(FP), DI
	MOVQ        p+8(FP), SI

	// load the midstate and reorder it: DCBA, HGFE -> ABEF, CDGH
	MOVOU       (DI), X1
	MOVOU       16(DI), X2
	PSHUFD      $0xb1, X1, X1
	PSHUFD      $0x1b, X2, X2
	MOVO        X1, X7
	PALIGNR     $0x08, X2, X1
	PBLENDW     $0xf0, X7, X2
	MOVOU       sha256Flip<>(SB), X8
	LEAQ        k256<>(SB), AX

	MOVO        X1, X9
	MOVO        X2, X10

	// do rounds 0-59
	MOVOU       (SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X3
	PADDD       (AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVOU       16(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X4
	PADDD       16(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVOU       32(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X5
	PADDD       32(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVOU       48(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X6
	PADDD       48(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       64(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       80(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       96(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       112(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       128(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       144(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       160(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       176(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       192(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       208(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVO        X5, X0
	PADDD       224(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// do rounds 60-63
	MOVO        X6, X0
	PADDD       240(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// add current hash values with previously saved
	PADDD       X9, X1
	PADDD       X10, X2

	// write the midstate back in the correct order
	PSHUFD      $0x1b, X1, X1
	PSHUFD      $0xb1, X2, X2
	MOVO        X1, X7
	PBLENDW     $0xf0, X2, X1
	PALIGNR     $0x08, X7, X2
	MOVOU       X1, (DI)
	MOVOU       X2, 16(DI)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL        eaxArg+0(FP), AX
	MOVL        ecxArg+4(FP), CX
	CPUID
	MOVL        AX, eax+8(FP)
	MOVL        BX, ebx+12(FP)
	MOVL        CX, ecx+16(FP)
	MOVL        DX, edx+20(FP)
	RET

// sha1Flip reverses all 16 bytes: big-endian message words, W0 in the top
// lane as SHA1RNDS4 expects.
DATA sha1Flip<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA sha1Flip<>+8(SB)/8, $0x0001020304050607
GLOBL sha1Flip<>(SB), RODATA|NOPTR, $16

// sha256Flip byte-swaps each 32-bit word.
DATA sha256Flip<>+0(SB)/8, $0x0405060700010203
DATA sha256Flip<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL sha256Flip<>(SB), RODATA|NOPTR, $16

// k256 holds the 64 SHA-256 round constants, four per 16-byte row.
DATA k256<>+0(SB)/4, $0x428a2f98
DATA k256<>+4(SB)/4, $0x71374491
DATA k256<>+8(SB)/4, $0xb5c0fbcf
DATA k256<>+12(SB)/4, $0xe9b5dba5
DATA k256<>+16(SB)/4, $0x3956c25b
DATA k256<>+20(SB)/4, $0x59f111f1
DATA k256<>+24(SB)/4, $0x923f82a4
DATA k256<>+28(SB)/4, $0xab1c5ed5
DATA k256<>+32(SB)/4, $0xd807aa98
DATA k256<>+36(SB)/4, $0x12835b01
DATA k256<>+40(SB)/4, $0x243185be
DATA k256<>+44(SB)/4, $0x550c7dc3
DATA k256<>+48(SB)/4, $0x72be5d74
DATA k256<>+52(SB)/4, $0x80deb1fe
DATA k256<>+56(SB)/4, $0x9bdc06a7
DATA k256<>+60(SB)/4, $0xc19bf174
DATA k256<>+64(SB)/4, $0xe49b69c1
DATA k256<>+68(SB)/4, $0xefbe4786
DATA k256<>+72(SB)/4, $0x0fc19dc6
DATA k256<>+76(SB)/4, $0x240ca1cc
DATA k256<>+80(SB)/4, $0x2de92c6f
DATA k256<>+84(SB)/4, $0x4a7484aa
DATA k256<>+88(SB)/4, $0x5cb0a9dc
DATA k256<>+92(SB)/4, $0x76f988da
DATA k256<>+96(SB)/4, $0x983e5152
DATA k256<>+100(SB)/4, $0xa831c66d
DATA k256<>+104(SB)/4, $0xb00327c8
DATA k256<>+108(SB)/4, $0xbf597fc7
DATA k256<>+112(SB)/4, $0xc6e00bf3
DATA k256<>+116(SB)/4, $0xd5a79147
DATA k256<>+120(SB)/4, $0x06ca6351
DATA k256<>+124(SB)/4, $0x14292967
DATA k256<>+128(SB)/4, $0x27b70a85
DATA k256<>+132(SB)/4, $0x2e1b2138
DATA k256<>+136(SB)/4, $0x4d2c6dfc
DATA k256<>+140(SB)/4, $0x53380d13
DATA k256<>+144(SB)/4, $0x650a7354
DATA k256<>+148(SB)/4, $0x766a0abb
DATA k256<>+152(SB)/4, $0x81c2c92e
DATA k256<>+156(SB)/4, $0x92722c85
DATA k256<>+160(SB)/4, $0xa2bfe8a1
DATA k256<>+164(SB)/4, $0xa81a664b
DATA k256<>+168(SB)/4, $0xc24b8b70
DATA k256<>+172(SB)/4, $0xc76c51a3
DATA k256<>+176(SB)/4, $0xd192e819
DATA k256<>+180(SB)/4, $0xd6990624
DATA k256<>+184(SB)/4, $0xf40e3585
DATA k256<>+188(SB)/4, $0x106aa070
DATA k256<>+192(SB)/4, $0x19a4c116
DATA k256<>+196(SB)/4, $0x1e376c08
DATA k256<>+200(SB)/4, $0x2748774c
DATA k256<>+204(SB)/4, $0x34b0bcb5
DATA k256<>+208(SB)/4, $0x391c0cb3
DATA k256<>+212(SB)/4, $0x4ed8aa4a
DATA k256<>+216(SB)/4, $0x5b9cca4f
DATA k256<>+220(SB)/4, $0x682e6ff3
DATA k256<>+224(SB)/4, $0x748f82ee
DATA k256<>+228(SB)/4, $0x78a5636f
DATA k256<>+232(SB)/4, $0x84c87814
DATA k256<>+236(SB)/4, $0x8cc70208
DATA k256<>+240(SB)/4, $0x90befffa
DATA k256<>+244(SB)/4, $0xa4506ceb
DATA k256<>+248(SB)/4, $0xbef9a3f7
DATA k256<>+252(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256
