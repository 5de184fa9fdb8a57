package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Fingerprint builds an exploration's content address: the hex SHA-256
// of the same unambiguous tagged byte stream as config.Fingerprint —
// every integer a tagged fixed-width value, every string length-prefixed
// — extended with a float tag (IEEE-754 bits).
type Fingerprint struct {
	h   hash.Hash
	buf [9]byte
}

// NewFingerprint starts an empty encoding.
func NewFingerprint() *Fingerprint { return &Fingerprint{h: sha256.New()} }

func (e *Fingerprint) put(tag byte, v uint64) {
	e.buf[0] = tag
	binary.BigEndian.PutUint64(e.buf[1:], v)
	e.h.Write(e.buf[:])
}

// Num encodes an integer.
func (e *Fingerprint) Num(v int64) { e.put('i', uint64(v)) }

// F64 encodes a float by its IEEE-754 bits.
func (e *Fingerprint) F64(v float64) { e.put('f', math.Float64bits(v)) }

// List encodes a list length (-1 for an absent list).
func (e *Fingerprint) List(n int) { e.put('l', uint64(int64(n))) }

// Str encodes a length-prefixed string.
func (e *Fingerprint) Str(s string) {
	e.put('s', uint64(len(s)))
	e.h.Write([]byte(s))
}

// Sum returns the hex digest of everything encoded so far.
func (e *Fingerprint) Sum() string { return hex.EncodeToString(e.h.Sum(nil)) }
