package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"strconv"
	"time"
)

// conn is a minimal HTTP/1.1 keep-alive client over one TCP connection: it
// writes a pre-framed request and reads the status and body back. It sits
// below net/http's client on purpose — no per-request header maps, no
// transport goroutines — so what the client costs is small and fixed.
type conn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) *conn { return &conn{addr: addr} }

// do sends one request and returns the status and the response body (valid
// until the next call). A transport failure closes the connection; the
// next call redials.
func (c *conn) do(wire []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.c = nc
		if c.br == nil {
			c.br = bufio.NewReaderSize(nc, 64<<10)
		} else {
			c.br.Reset(nc)
		}
	}
	status, closeAfter, err := c.roundTrip(wire)
	if err != nil || closeAfter {
		c.close()
	}
	return status, c.body.Bytes(), err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

func (c *conn) roundTrip(wire []byte) (status int, closeAfter bool, err error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, false, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, false, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closeAfter = bytes.EqualFold(value, []byte("close"))
		}
	}
	c.body.Reset()
	switch {
	case chunked:
		_, err = c.body.ReadFrom(httputil.NewChunkedReader(c.br))
		if err == nil {
			// Trailer section: empty for these responses, ends at a blank line.
			for {
				line, err = c.br.ReadSlice('\n')
				if err != nil || len(bytes.TrimRight(line, "\r\n")) == 0 {
					break
				}
			}
		}
	case length >= 0:
		c.body.Grow(length)
		buf := c.body.AvailableBuffer()[:length]
		if _, err = io.ReadFull(c.br, buf); err == nil {
			c.body.Write(buf)
		}
	default:
		return 0, false, fmt.Errorf("response without length or chunking")
	}
	return status, closeAfter, err
}
