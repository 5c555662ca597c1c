// Command collecho is collbench's HTTP reference: a bare net/http server on
// a loopback port that answers every request with "1". It imports nothing
// from the repository, so its start-up and its answers time only the host,
// the Go runtime and loopback HTTP. collbench runs it next to the service's
// server child and divides by its times (see collbench/reference.go).
//
// It prints "listening ADDR" once it accepts connections and exits on
// SIGTERM.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := serve(); err != nil {
		fmt.Fprintf(os.Stderr, "collecho: %v\n", err)
		os.Exit(1)
	}
}

func serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "1\n") }),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	fmt.Printf("listening %s\n", ln.Addr())
	select {
	case <-sigc:
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}
	return srv.Close()
}
