package testkit

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// Partial requests for MustDropStalledRequest: a request line whose headers
// never finish, and headers that declare a body of which only a little
// arrives.
const (
	StalledHeaders = "GET /healthz HTTP/1.1\r\n"
	StalledBody    = "POST /v1/sessions HTTP/1.1\r\nHost: asv\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"pw\":"
)

// MustDropStalledRequest connects to the HTTP listener at addr, sends
// partial and then stalls, and fails the test unless the server hangs up
// within wait. StalledHeaders checks that the server bounds header reads
// (http.Server.ReadHeaderTimeout) and StalledBody that it bounds the whole
// request (http.Server.ReadTimeout), so a stalled client cannot hold a
// connection forever.
func MustDropStalledRequest(t testing.TB, addr, partial string, wait time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	//asvlint:ignore droppederr the probe only reads; by now the server has hung up or the test has failed
	defer conn.Close()
	if _, err := io.WriteString(conn, partial); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		t.Fatal(err)
	}
	// A hang-up reads as EOF (or a reset); only the deadline firing means
	// the server still held the connection open.
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server at %s still held a connection stalled at %q after %v", addr, partial, wait)
	}
}
