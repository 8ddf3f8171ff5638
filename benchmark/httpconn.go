package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the daemon. The loader
// speaks the protocol itself rather than through net/http's client:
// loader and daemon share the host's CPUs, and the client's per-request
// goroutine handoffs and allocations cost several times the CPU of a
// write and a read, which the daemon would feel as contention.
type conn struct {
	addr string // host:port
	nc   net.Conn
	r    *bufio.Reader
	hdr  []byte
}

func newConn(url string) *conn {
	return &conn{addr: url[len("http://"):]}
}

// requestTimeout bounds one request's round trip.
const requestTimeout = 60 * time.Second

// do sends one request and reads the whole response. A connection
// error closes the connection; the next request redials.
func (c *conn) do(method, path, contentType string, body []byte) (int, []byte, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.nc, c.r = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	c.nc.SetDeadline(time.Now().Add(requestTimeout))
	c.hdr = fmt.Appendf(c.hdr[:0], "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n", method, path, c.addr, len(body))
	if contentType != "" {
		c.hdr = fmt.Appendf(c.hdr, "Content-Type: %s\r\n", contentType)
	}
	c.hdr = append(c.hdr, "\r\n"...)
	bufs := net.Buffers{c.hdr, body}
	if _, err := bufs.WriteTo(c.nc); err != nil {
		c.Close()
		return 0, nil, err
	}
	status, resp, keep, err := readResponse(c.r)
	if err != nil || !keep {
		c.Close()
	}
	return status, resp, err
}

// Close closes the connection.
func (c *conn) Close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.r = nil, nil
	}
}

func (c *conn) post(path, contentType string, body []byte) (int, []byte, error) {
	return c.do("POST", path, contentType, body)
}

// getJSON fetches path and decodes a 200 response into v.
func (c *conn) getJSON(path string, v any) error {
	status, body, err := c.do("GET", path, "", nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// readResponse reads one HTTP/1.1 response: the status line, the
// headers the daemon sends, and a Content-Length or chunked body.
// keep reports whether the connection stays open.
func readResponse(r *bufio.Reader) (status int, body []byte, keep bool, err error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return 0, nil, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, false, fmt.Errorf("bad header line %q", line)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return 0, nil, false, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			keep = !bytes.EqualFold(v, []byte("close"))
		}
	}
	switch {
	case chunked:
		if body, err = io.ReadAll(httputil.NewChunkedReader(r)); err != nil {
			return 0, nil, false, err
		}
		// The chunked reader stops at the last chunk; the (empty)
		// trailer section ends with one more blank line.
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return 0, nil, false, err
			}
			if len(bytes.TrimRight(line, "\r\n")) == 0 {
				break
			}
		}
	case length >= 0:
		body = make([]byte, length)
		if _, err = io.ReadFull(r, body); err != nil {
			return 0, nil, false, err
		}
	default:
		return 0, nil, false, errors.New("response without Content-Length or chunked body")
	}
	return status, body, keep, nil
}
