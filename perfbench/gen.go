package main

import (
	"fmt"
	"strings"
)

// rng is splitmix64: small, seedable and identical on every platform,
// so a seed names the same inputs everywhere.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + 1} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// reserved are the dialect's keywords, builtins and the entry point:
// every other identifier is the user's and may be renamed.
var reserved = map[string]bool{
	"class": true, "public": true, "private": true, "const": true,
	"int": true, "double": true, "float": true, "boolean": true, "bool": true,
	"void": true, "if": true, "else": true, "for": true, "while": true,
	"return": true, "new": true, "this": true, "NULL": true, "nullptr": true,
	"TRUE": true, "true": true, "FALSE": true, "false": true,
	"dynamic_cast": true, "main": true,
	"sqrt": true, "fabs": true, "exp": true, "log": true, "floor": true,
	"sin": true, "cos": true, "pow": true, "print": true,
}

// variantTag draws the suffix that makes one renamed variant: the same
// (seed, stream, index) always gives the same tag.
func variantTag(seed int64, stream string, index int) string {
	h := newRNG(seed)
	for _, c := range stream {
		h.s ^= uint64(c)
		h.next()
	}
	h.s ^= uint64(index)
	return fmt.Sprintf("v%08x", uint32(h.next()))
}

// renameSource appends "_"+tag to every user identifier outside
// comments and string literals, so the variant is a different program
// text (a cold entry in every cache the compiler keeps) with the same
// meaning. An empty tag returns the source unchanged.
func renameSource(src, tag string) string {
	if tag == "" {
		return src
	}
	var b strings.Builder
	b.Grow(len(src) + len(src)/4)
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			j := strings.IndexByte(src[i:], '\n')
			if j < 0 {
				j = len(src) - i
			}
			b.WriteString(src[i : i+j])
			i += j
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			j := strings.Index(src[i+2:], "*/")
			end := len(src)
			if j >= 0 {
				end = i + 2 + j + 2
			}
			b.WriteString(src[i:end])
			i = end
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j < len(src) {
				j++
			}
			b.WriteString(src[i:j])
			i = j
		case isDigit(c):
			j := i + 1
			for j < len(src) && (isIdent(src[j]) || src[j] == '.' ||
				((src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			b.WriteString(src[i:j])
			i = j
		case isIdentStart(c):
			j := i + 1
			for j < len(src) && isIdent(src[j]) {
				j++
			}
			id := src[i:j]
			b.WriteString(id)
			if !reserved[id] {
				b.WriteString("_")
				b.WriteString(tag)
			}
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

func renameIdent(id, tag string) string {
	if tag == "" || reserved[id] {
		return id
	}
	return id + "_" + tag
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdent(c byte) bool      { return isIdentStart(c) || isDigit(c) }
