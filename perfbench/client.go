package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// client is the benchmark's own loopback HTTP/1.1 client. Each load worker
// owns one keep-alive connection, so the pool holds exactly as many
// connections as there are workers, and every dial is counted: a run that
// opened more connections than it has workers was measuring connection
// churn, not the server.
type client struct {
	addr  string
	dials atomic.Int64
}

// conn is one keep-alive connection, used by one goroutine at a time.
type conn struct {
	cl   *client
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func (cl *client) conn() *conn { return &conn{cl: cl} }

// get sends GET path and returns the status and body; the body is valid
// until the next call. A transport error drops the connection, and the next
// call dials a new one.
func (cn *conn) get(path string, deadline time.Time) (int, []byte, error) {
	if cn.c == nil {
		c, err := net.Dial("tcp", cn.cl.addr)
		if err != nil {
			return 0, nil, fmt.Errorf("dial %s: %w", cn.cl.addr, err)
		}
		cn.cl.dials.Add(1)
		cn.c, cn.br = c, bufio.NewReader(c)
	}
	if err := cn.c.SetDeadline(deadline); err != nil {
		cn.close()
		return 0, nil, err
	}
	cn.req = append(cn.req[:0], "GET "...)
	cn.req = append(cn.req, path...)
	cn.req = append(cn.req, " HTTP/1.1\r\nHost: perfbench\r\n\r\n"...)
	if _, err := cn.c.Write(cn.req); err != nil {
		cn.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		cn.close()
		return 0, nil, err
	}
	cn.body, err = readBody(cn.body[:0], resp.Body)
	_ = resp.Body.Close() // fully read above; Close only releases it
	if err != nil || resp.Close {
		cn.close()
	}
	return resp.StatusCode, cn.body, err
}

func readBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (cn *conn) close() {
	if cn.c != nil {
		_ = cn.c.Close() // the connection is being dropped either way
		cn.c, cn.br = nil, nil
	}
}

// answer is one parsed /resolve response.
type answer struct {
	epoch  uint64
	source string
	sat    int
	hops   int
}

// parseAnswer parses and validates a /resolve response body: every field
// present, a known source, a positive RTT, a satellite inside the fleet for
// space-served answers, and a non-negative hop count.
func parseAnswer(body []byte, sats int) (answer, error) {
	var r struct {
		Epoch  *uint64 `json:"epoch"`
		TMs    *int64  `json:"t_ms"`
		Source *string `json:"source"`
		Sat    *int    `json:"sat"`
		Hops   *int    `json:"hops"`
		RTTUs  *int64  `json:"rtt_us"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, fmt.Errorf("malformed response %q: %w", body, err)
	}
	if r.Epoch == nil || r.TMs == nil || r.Source == nil || r.Sat == nil || r.Hops == nil || r.RTTUs == nil {
		return answer{}, fmt.Errorf("response %q lacks a field", body)
	}
	a := answer{epoch: *r.Epoch, source: *r.Source, sat: *r.Sat, hops: *r.Hops}
	switch {
	case a.source != "overhead" && a.source != "isl" && a.source != "ground":
		return a, fmt.Errorf("response %q has unknown source", body)
	case *r.RTTUs <= 0:
		return a, fmt.Errorf("response %q has non-positive RTT", body)
	case a.epoch < 1:
		return a, fmt.Errorf("response %q has epoch 0", body)
	case a.hops < 0:
		return a, fmt.Errorf("response %q has negative hops", body)
	case a.source != "ground" && (a.sat < 0 || a.sat >= sats):
		return a, fmt.Errorf("response %q names satellite outside the %d-satellite fleet", body, sats)
	}
	return a, nil
}
