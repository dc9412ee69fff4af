package httpwire

import (
	"bufio"
	"strings"
	"testing"
)

func TestReadLine(t *testing.T) {
	br := bufio.NewReaderSize(strings.NewReader("GET / HTTP/1.1\r\nbare\n"+strings.Repeat("x", 20)+"\r\n"), 16)
	budget := 100
	if line, err := ReadLine(br, &budget); err != nil || string(line) != "GET / HTTP/1.1" || budget != 84 {
		t.Fatalf("ReadLine = %q, %v, budget %d", line, err, budget)
	}
	if _, err := ReadLine(br, &budget); err != ErrMalformed {
		t.Errorf("a bare LF: %v, want ErrMalformed", err)
	}
	if _, err := ReadLine(br, &budget); err != ErrMalformed {
		t.Errorf("a line over the buffer: %v, want ErrMalformed", err)
	}
	budget = 1
	br = bufio.NewReader(strings.NewReader("ab\r\n"))
	if _, err := ReadLine(br, &budget); err != ErrMalformed {
		t.Errorf("a line over the budget: %v, want ErrMalformed", err)
	}
}

func TestCutLine(t *testing.T) {
	for _, tc := range []struct {
		in, line, rest string
		ok             bool
	}{
		{"Host: x\r\nrest", "Host: x", "rest", true},
		{"\r\n", "", "", true},
		{"Host: x\nrest", "", "Host: x\nrest", false},
		{"\n", "", "\n", false},
		{"Host: x", "", "Host: x", false},
	} {
		line, rest, ok := CutLine([]byte(tc.in))
		if string(line) != tc.line || string(rest) != tc.rest || ok != tc.ok {
			t.Errorf("CutLine(%q) = %q, %q, %v", tc.in, line, rest, ok)
		}
	}
}

func TestSplitHeader(t *testing.T) {
	for _, tc := range []struct {
		in, name, value string
		ok              bool
	}{
		{"Content-Length:  12 \t", "Content-Length", "12", true},
		{"X:", "X", "", true},
		{"X: a\tb", "X", "a\tb", true},
		{": a", "", "", false},
		{"Bad Name: a", "", "", false},
		{"X : a", "", "", false},
		{"X: \x01", "", "", false},
		{"X: caf\xc3\xa9", "", "", false},
		{"NoColon", "", "", false},
	} {
		name, value, ok := SplitHeader([]byte(tc.in))
		if string(name) != tc.name || string(value) != tc.value || ok != tc.ok {
			t.Errorf("SplitHeader(%q) = %q, %q, %v", tc.in, name, value, ok)
		}
	}
}

func TestHasToken(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"close", true},
		{"keep-alive, Close", true},
		{" \tCLOSE\t ", true},
		{"keep-alive", false},
		{"closed", false},
		{"", false},
	} {
		if ok := HasToken([]byte(tc.in), "close"); ok != tc.ok {
			t.Errorf("HasToken(%q, close) = %v", tc.in, ok)
		}
	}
}
