// Package httpwire is the HTTP/1.1 tokenizer shared by xbard's two
// strict fast paths: the peer client's response reader
// (internal/cluster) and the API listener's serve loop
// (internal/server). Both read a documented subset of what net/http
// reads: CRLF line ends, header names of token bytes, header values
// of printable ASCII and tabs, no line folding. Each path checks its
// subset against net/http with a differential fuzzer.
package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
)

// ErrMalformed reports a message outside the subset.
var ErrMalformed = errors.New("httpwire: malformed HTTP/1.1 message")

// ReadLine returns the next CRLF-terminated line of br without its
// CRLF, charging it to budget.
func ReadLine(br *bufio.Reader, budget *int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull:
		return nil, ErrMalformed
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, err
	}
	*budget -= len(line)
	if *budget < 0 || len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, ErrMalformed
	}
	return line[:len(line)-2], nil
}

// CutLine cuts the first line off b: line is what precedes its CRLF,
// rest what follows it. ok is false when b holds no LF or the first
// LF has no CR before it.
func CutLine(b []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '\n')
	if i < 1 || b[i-1] != '\r' {
		return nil, b, false
	}
	return b[:i-1], b[i+1:], true
}

// SplitHeader splits a header line into its name, which must be token
// bytes, and its value, trimmed of spaces and tabs, which must be
// printable ASCII and tabs.
func SplitHeader(line []byte) (name, value []byte, ok bool) {
	i := 0
	for i < len(line) && IsToken(line[i]) {
		i++
	}
	if i == 0 || i == len(line) || line[i] != ':' {
		return nil, nil, false
	}
	name, value = line[:i], trimOWS(line[i+1:])
	for _, c := range value {
		if (c < ' ' || c > '~') && c != '\t' {
			return nil, nil, false
		}
	}
	return name, value, true
}

// HasToken reports whether the comma-separated list v holds token,
// compared case-insensitively (net/http's reading of Connection).
func HasToken(v []byte, token string) bool {
	for {
		item, rest, more := bytes.Cut(v, []byte{','})
		if EqualFold(trimOWS(item), token) {
			return true
		}
		if !more {
			return false
		}
		v = rest
	}
}

func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// EqualFold compares ASCII b and s case-insensitively.
func EqualFold(b []byte, s string) bool {
	return bytes.EqualFold(b, []byte(s))
}

// IsToken reports an RFC 9110 tchar.
func IsToken(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	switch c {
	case '!', '#', '$', '%', '&', '\'', '*', '+', '-', '.', '^', '_', '`', '|', '~':
		return true
	}
	return false
}
