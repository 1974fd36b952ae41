package server

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected: a client that connects, sends part of
// a request line and never finishes its headers is disconnected once the
// header-read timeout passes, rather than holding the connection open.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	hs := NewHTTPServer("", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != ReadHeaderTimeout || ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, ReadHeaderTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v would cut replication streams", hs.ReadTimeout, hs.WriteTimeout)
	}
	// The same server with a short header timeout, so the test need not
	// wait out the production constant.
	const short = 200 * time.Millisecond
	hs.ReadHeaderTimeout = short
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.SetReadDeadline(start.Add(10 * short))
	// The server may answer 408 before closing; either way the read must
	// end in EOF well before the client-side deadline.
	_, err = io.ReadAll(c)
	if err != nil {
		t.Fatalf("connection still open after %v: %v", time.Since(start), err)
	}
	if took := time.Since(start); took < short/2 {
		t.Fatalf("disconnected after %v, before the %v header timeout", took, short)
	}
}
