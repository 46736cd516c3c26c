package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strconv"
	"sync"
)

// refServer is the benchmark's yardstick: a minimal memcached (get, set and
// delete over a locked Go map) that shares no code with the program under
// test. An untraced run alternates its load between the real server and this
// one, so both are timed on the same host within seconds of each other, and
// the real server's throughput can be stated relative to the yardstick's.
// The host's speed then largely cancels out of the gated figure.
type refServer struct {
	ln    net.Listener
	mu    sync.RWMutex
	data  map[string][]byte
	wg    sync.WaitGroup
	connM sync.Mutex
	conns map[net.Conn]struct{}
}

// newRefServer holds key ids [0, keys) at version 0, as the real server
// does after its preload, and starts serving on loopback.
func newRefServer(keys uint64) (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &refServer{ln: ln, data: make(map[string][]byte, keys), conns: map[net.Conn]struct{}{}}
	var k [keyLen]byte
	for id := uint64(0); id < keys; id++ {
		s.data[string(appendKey(k[:0], id))] = appendValue(nil, id, 0)
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *refServer) addr() string { return s.ln.Addr().String() }

func (s *refServer) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connM.Lock()
		s.conns[c] = struct{}{}
		s.connM.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(c)
			s.connM.Lock()
			delete(s.conns, c)
			s.connM.Unlock()
			c.Close()
		}()
	}
}

// close stops the listener and every connection, and waits for them.
func (s *refServer) close() {
	s.ln.Close()
	s.connM.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connM.Unlock()
	s.wg.Wait()
}

// serve answers one connection's requests in order and flushes the replies
// whenever no further request is buffered. It drops the connection on the
// first request it cannot frame.
func (s *refServer) serve(c net.Conn) {
	r := bufio.NewReaderSize(c, 64<<10)
	w := bufio.NewWriterSize(c, 64<<10)
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return
		}
		line, ok := bytes.CutSuffix(line, []byte("\r\n"))
		if !ok {
			return
		}
		cmd, rest, _ := bytes.Cut(line, []byte{' '})
		switch string(cmd) {
		case "get":
			s.mu.RLock()
			for len(rest) > 0 {
				var key []byte
				key, rest, _ = bytes.Cut(rest, []byte{' '})
				if v, ok := s.data[string(key)]; ok {
					w.WriteString("VALUE ")
					w.Write(key)
					w.WriteString(" 0 ")
					w.WriteString(strconv.Itoa(len(v)))
					w.WriteString("\r\n")
					w.Write(v)
					w.WriteString("\r\n")
				}
			}
			s.mu.RUnlock()
			w.WriteString("END\r\n")
		case "set": // set <key> <flags> <exptime> <bytes>
			key, rest, _ := bytes.Cut(rest, []byte{' '})
			f := bytes.Fields(rest)
			if len(f) != 3 {
				return
			}
			n, err := strconv.Atoi(string(f[2]))
			if err != nil || n < 0 {
				return
			}
			v := make([]byte, n+2)
			if _, err := io.ReadFull(r, v); err != nil || v[n] != '\r' || v[n+1] != '\n' {
				return
			}
			s.mu.Lock()
			s.data[string(key)] = v[:n]
			s.mu.Unlock()
			w.WriteString("STORED\r\n")
		case "delete":
			s.mu.Lock()
			_, ok := s.data[string(rest)]
			delete(s.data, string(rest))
			s.mu.Unlock()
			if ok {
				w.WriteString("DELETED\r\n")
			} else {
				w.WriteString("NOT_FOUND\r\n")
			}
		default:
			w.WriteString("ERROR\r\n")
		}
		if r.Buffered() == 0 && w.Flush() != nil {
			return
		}
	}
}
