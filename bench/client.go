package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"time"
)

// replyTimeout bounds every wait for a reply, so a dead daemon fails the op
// instead of hanging the run.
const replyTimeout = 5 * time.Second

// client is one connection to a daemon's line-protocol port.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialClient(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial client port %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // already Go's default; stated because latencies depend on it
	}
	// KEYS over a 100k-key store answers with one ~1 MB line.
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 1<<16), w: bufio.NewWriterSize(conn, 1<<16)}, nil
}

func (c *client) close() { _ = c.conn.Close() }

// do sends one command line and returns the reply line without its newline.
func (c *client) do(line string) (string, error) {
	_ = c.conn.SetDeadline(time.Now().Add(replyTimeout))
	c.w.WriteString(line)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return "", fmt.Errorf("write command: %w", err)
	}
	return c.readReply()
}

func (c *client) readReply() (string, error) {
	s, err := c.r.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("read reply: %w", err)
	}
	return strings.TrimRight(s, "\r\n"), nil
}

// pipeline sends every line, then reads one reply per line. The daemon
// answers a connection's commands in order, so replies[i] answers lines[i].
func (c *client) pipeline(lines []string) ([]string, error) {
	_ = c.conn.SetDeadline(time.Now().Add(replyTimeout))
	// The writer runs beside the reader: a long pipeline would otherwise
	// deadlock once both socket buffers fill.
	werr := make(chan error, 1)
	go func() {
		defer guard()
		for _, l := range lines {
			c.w.WriteString(l)
			c.w.WriteByte('\n')
		}
		werr <- c.w.Flush()
	}()
	replies := make([]string, 0, len(lines))
	var rerr error
	for range lines {
		s, err := c.readReply()
		if err != nil {
			rerr = err
			_ = c.conn.SetDeadline(time.Now()) // unblock the writer
			break
		}
		replies = append(replies, s)
	}
	if err := <-werr; err != nil && rerr == nil {
		rerr = fmt.Errorf("write command: %w", err)
	}
	return replies, rerr
}

// scrapeJSON sends a verb whose reply is one JSON object (STATSJSON, WIRE)
// and adds its numeric fields to into under prefix.
func (c *client) scrapeJSON(verb, prefix string, into counters) error {
	reply, err := c.do(verb)
	if err != nil {
		return err
	}
	return parseJSONCounters(verb, reply, prefix, into)
}

// parseJSONCounters adds the numeric top-level fields of a one-line JSON
// reply to into, each under prefix+field.
func parseJSONCounters(verb, reply, prefix string, into counters) error {
	if strings.HasPrefix(reply, "ERR") {
		return fmt.Errorf("%s: %s", verb, reply)
	}
	var fields map[string]any
	if err := json.Unmarshal([]byte(reply), &fields); err != nil {
		return fmt.Errorf("%s reply: %w", verb, err)
	}
	for name, v := range fields {
		if f, ok := v.(float64); ok {
			into[prefix+name] = f
		}
	}
	return nil
}

// listReply parses "<VERB> a b c" into its items; a bare "<VERB>" or
// "<VERB> " is the empty list.
func listReply(verb, reply string) ([]string, error) {
	rest, ok := strings.CutPrefix(reply, verb)
	if !ok {
		return nil, fmt.Errorf("want %s reply, got %.80q", verb, reply)
	}
	return strings.Fields(rest), nil
}
