// Package taes implements AES-128/192/256 with the table-driven (T-table)
// structure of OpenSSL 0.9.8's aes_core.c — the implementation the paper's
// §4.4 cache attack extracts keys from. The encryption tables Te0–Te3, the
// decryption tables Td0–Td3 and the inverse S-box table Td4 are generated
// algorithmically and validated against crypto/aes in the tests.
//
// Beyond the pure-Go reference, the package exposes the exact per-round
// table-access trace of a decryption (AccessTrace), which is the ground
// truth the MicroScope attack's extracted cache-line sequence is verified
// against, and the raw tables for embedding into simulated victim memory.
package taes

// GF(2^8) helpers over the AES polynomial x^8+x^4+x^3+x+1 (0x11b).

func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// gmul multiplies a and b in GF(2^8).
func gmul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

var (
	sbox  [256]byte // forward S-box
	sboxI [256]byte // inverse S-box

	te [4][256]uint32 // encryption T-tables
	td [4][256]uint32 // decryption T-tables
)

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

func init() {
	// Multiplicative inverses via log/antilog tables over generator 3.
	var log, alog [256]byte
	p := byte(1)
	for i := 0; i < 255; i++ {
		alog[i] = p
		log[p] = byte(i)
		p ^= xtime(p) // multiply by 3 = x+1
	}
	inv := func(x byte) byte {
		if x == 0 {
			return 0
		}
		return alog[(255-int(log[x]))%255]
	}
	for i := 0; i < 256; i++ {
		s := inv(byte(i))
		s = s ^ rotl8(s, 1) ^ rotl8(s, 2) ^ rotl8(s, 3) ^ rotl8(s, 4) ^ 0x63
		sbox[i] = s
		sboxI[s] = byte(i)
	}
	for i := 0; i < 256; i++ {
		s := sbox[i]
		w := uint32(gmul(s, 2))<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(gmul(s, 3))
		for t := 0; t < 4; t++ {
			te[t][i] = w>>(8*uint(t)) | w<<(32-8*uint(t))
		}
		si := sboxI[i]
		w = uint32(gmul(si, 14))<<24 | uint32(gmul(si, 9))<<16 |
			uint32(gmul(si, 13))<<8 | uint32(gmul(si, 11))
		for t := 0; t < 4; t++ {
			td[t][i] = w>>(8*uint(t)) | w<<(32-8*uint(t))
		}
	}
}

// Td returns decryption table i (0..3) — the tables whose cache lines the
// paper's Fig. 11 probes.
func Td(i int) [256]uint32 { return td[i] }

// Td4 returns the final-round inverse-S-box table widened to uint32
// entries (the simulated victim loads it with 32-bit loads).
func Td4() [256]uint32 {
	var out [256]uint32
	for i, v := range sboxI {
		out[i] = uint32(v)
	}
	return out
}

// invMixColumnsWord applies InvMixColumns to one big-endian column word,
// used to derive the decryption key schedule.
func invMixColumnsWord(w uint32) uint32 {
	a0, a1, a2, a3 := byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	b0 := gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9)
	b1 := gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13)
	b2 := gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11)
	b3 := gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14)
	return uint32(b0)<<24 | uint32(b1)<<16 | uint32(b2)<<8 | uint32(b3)
}
