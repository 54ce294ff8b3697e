package testkit

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// MustDropStalledHeaders connects to the HTTP listener at addr, sends a
// request line and then never finishes its headers, and fails the test
// unless the server hangs up within wait. It checks that the server bounds
// header reads (http.Server.ReadHeaderTimeout), so a stalled client cannot
// hold a connection forever.
func MustDropStalledHeaders(t testing.TB, addr string, wait time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	//asvlint:ignore droppederr the probe only reads; by now the server has hung up or the test has failed
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\n"); err != nil {
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
		t.Fatalf("server at %s still held a header-less connection after %v", addr, wait)
	}
}
