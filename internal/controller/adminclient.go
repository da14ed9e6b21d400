package controller

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// DefaultPushTimeout bounds one admin request when AdminClient.Timeout is
// zero. Table III measures table updates completing in tens of
// milliseconds; ten seconds is generous for any healthy daemon, so a
// request that exceeds it indicates a dead daemon, not a slow one.
const DefaultPushTimeout = 10 * time.Second

// AdminClient is the client half of the admin endpoint (NewAdminMux):
// ncctl and the multi-process harness reach every daemon through it.
type AdminClient struct {
	// Timeout bounds each request; zero selects DefaultPushTimeout.
	Timeout time.Duration
}

// do sends one request to a daemon's admin address and returns the body of
// a 200 answer; any other status is an error carrying the daemon's answer.
func (c AdminClient) do(method, addr, path string, body []byte) ([]byte, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = DefaultPushTimeout
	}
	req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	client := http.Client{Timeout: timeout}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// Get fetches one admin document (/stats, /drain) into v.
func (c AdminClient) Get(addr, path string, v any) error {
	raw, err := c.do(http.MethodGet, addr, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// Post sends one lifecycle request (/reload with a deploy file as body;
// /drain, /restart and /stop with their query) and returns the answer.
func (c AdminClient) Post(addr, path string, body []byte) ([]byte, error) {
	return c.do(http.MethodPost, addr, path, body)
}

// WaitHealthy polls a daemon's drain status until it reports a running,
// not draining, daemon — after a restart, until the replacement process
// answers — or the deadline passes, and then returns the last refusal. A
// deadline already past asks once.
func (c AdminClient) WaitHealthy(addr string, deadline time.Time) error {
	for {
		var st drainStatus
		err := c.Get(addr, "/drain", &st)
		if err == nil && (st.Draining || st.State != "running") {
			err = fmt.Errorf("state %s", st.State) // still the outgoing process
		}
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %w", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
