package httpd

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sscanfLength is how Content-Length used to be read: the last
// "Content-Length: " line's value through fmt.Sscanf's %d, a value that
// does not parse leaving the previous one.
func sscanfLength(lines []string) int {
	want := 0
	for _, line := range lines {
		if n, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			fmt.Sscanf(n, "%d", &want)
		}
	}
	return want
}

func TestContentLengthMatchesSscanf(t *testing.T) {
	for _, lines := range [][]string{
		{"PUT /k HTTP/1.0", "Content-Length: 12"},
		{"PUT /k HTTP/1.0", "Content-Length: +12"},
		{"PUT /k HTTP/1.0", "Content-Length: -3"},
		{"PUT /k HTTP/1.0", "Content-Length: 12abc"},
		{"PUT /k HTTP/1.0", "Content-Length:  \t7"},
		{"PUT /k HTTP/1.0", "Content-Length: "},
		{"PUT /k HTTP/1.0", "Content-Length: abc"},
		{"PUT /k HTTP/1.0", "Content-Length: +"},
		{"PUT /k HTTP/1.0", "Content-Length: +-3"},
		{"PUT /k HTTP/1.0", "Content-Length: 99999999999999999999"},
		{"PUT /k HTTP/1.0", "Content-Length: 1_000"},
		{"PUT /k HTTP/1.0", "Content-Length:  5"},
		{"PUT /k HTTP/1.0", "Content-Length: \n5"},
		{"Content-Length: 4", "Content-Length: x"},
		{"Content-Length: 4", "Content-Length: 9"},
		{"content-length: 4"},
		{"Content-Length:4"},
		{""},
	} {
		head := []byte(strings.Join(lines, "\r\n"))
		if got, want := contentLength(head), sscanfLength(lines); got != want {
			t.Errorf("%q: contentLength = %d, Sscanf read %d", head, got, want)
		}
	}
}

// TestContentLengthMatchesSscanfRandom compares the two parsers on values
// drawn from the characters that steer %d: digits, signs, blanks,
// newlines, a non-ASCII space and letters.
func TestContentLengthMatchesSscanfRandom(t *testing.T) {
	alphabet := []string{"0", "1", "7", "9", "+", "-", " ", "\t", "\r", "\n", "\u00a0", "x", "_"}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := ""
		for n := r.Intn(8); n > 0; n-- {
			v += alphabet[r.Intn(len(alphabet))]
		}
		lines := []string{"PUT /k HTTP/1.0", "Content-Length: 5", "Content-Length: " + v}
		head := []byte(strings.Join(lines, "\r\n"))
		// A "\r\n" inside v splits the line, exactly as it does for the
		// server; compare on the lines the server sees.
		split := strings.Split(string(head), "\r\n")
		if got, want := contentLength(head), sscanfLength(split); got != want {
			t.Fatalf("%q: contentLength = %d, Sscanf read %d", head, got, want)
		}
	}
}
