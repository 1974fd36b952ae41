package server

import (
	"net/http"
	"time"
)

// ReadHeaderTimeout bounds how long a connection may take to send its
// request headers. Every listener the commands open sets it, so a client
// that connects and never finishes its headers is disconnected instead of
// holding a goroutine and a file descriptor for good. There is deliberately
// no ReadTimeout or WriteTimeout: either would cut long-lived
// /replicate/wal streams and long NDJSON result streams.
const ReadHeaderTimeout = 10 * time.Second

// NewHTTPServer returns an http.Server for h on addr with ReadHeaderTimeout
// set; ssdserve's main and debug listeners and ssdrouter are built by it.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}
