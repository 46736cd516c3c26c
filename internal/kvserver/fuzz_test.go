package kvserver

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

// protoCmd is one command of a FuzzProtocol sequence: its request bytes and
// the reply the map model predicts for it ("" under noreply).
type protoCmd struct{ req, want string }

// fuzzKeys is the key pool sets and deletes draw from: short keys, a key of
// exactly MaxKeyLen bytes and two over the cap.
var fuzzKeys = []string{
	"a", "b", "k1", "key-2",
	strings.Repeat("m", MaxKeyLen),
	strings.Repeat("o", MaxKeyLen+1),
	strings.Repeat("p", MaxKeyLen+40),
}

// fuzzArity lists malformed or argument-free lines with their fixed replies;
// none of them makes the server read a payload.
var fuzzArity = []protoCmd{
	{"set a 0 0\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"set a 0 0 1 noreply extra\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"set a 0 0 1 maybe\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"delete\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"delete a maybe\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"get\r\n", "ERROR\r\n"},
	{"gets \t \r\n", "ERROR\r\n"},
	{"\r\n", ""},
	{" \t \r\n", ""},
	{"version\r\n", "VERSION " + Version + "\r\n"},
	{"set a 0 0 -1\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"set a 0 0 abc\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"set a 0 0 99999999999999999999\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"set a 0 0 +\r\n", "CLIENT_ERROR bad command line format\r\n"},
}

// protoModel is the reference semantics: a map, and the reply each command
// earns against it.
type protoModel map[string]string

func (m protoModel) set(key, val string, noreply, chunkOK bool) string {
	switch {
	case len(key) > MaxKeyLen:
		return "CLIENT_ERROR bad command line format\r\n"
	case len(val) > MaxValueSize:
		return "SERVER_ERROR object too large for cache\r\n"
	case !chunkOK:
		return "CLIENT_ERROR bad data chunk\r\n"
	}
	m[key] = val
	if noreply {
		return ""
	}
	return "STORED\r\n"
}

func (m protoModel) delete(key string, noreply bool) string {
	if len(key) > MaxKeyLen {
		return "CLIENT_ERROR bad command line format\r\n"
	}
	_, found := m[key]
	delete(m, key)
	switch {
	case noreply:
		return ""
	case found:
		return "DELETED\r\n"
	default:
		return "NOT_FOUND\r\n"
	}
}

// get models a whole get line, split as memcached tokenizes it: on
// whitespace.
func (m protoModel) get(line string) string {
	keys := strings.Fields(line)[1:]
	if len(keys) == 0 {
		return "ERROR\r\n"
	}
	for _, k := range keys {
		if len(k) > MaxKeyLen {
			return "CLIENT_ERROR bad command line format\r\n"
		}
	}
	var b strings.Builder
	for _, k := range keys {
		if v, ok := m[k]; ok {
			b.WriteString("VALUE " + k + " 0 " + strconv.Itoa(len(v)) + "\r\n" + v + "\r\n")
		}
	}
	return b.String() + "END\r\n"
}

// decodeProtocol turns fuzz bytes into at most 64 commands with their
// predicted replies. Every byte string decodes to a sequence whose framing
// the model can follow: payloads carry arbitrary bytes, but free-form bytes
// appear only on get lines and unknown verbs, which never read a payload.
func decodeProtocol(data []byte) []protoCmd {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	take := func(n int) string {
		n = min(n, len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	line := func(n int) string { return strings.ReplaceAll(take(n), "\n", " ") }
	m := protoModel{}
	var cmds []protoCmd
	for len(data) > 0 && len(cmds) < 64 {
		op, flags := next()%10, next()
		noreply, sfx := flags&1 != 0, ""
		if noreply {
			sfx = " noreply"
		}
		var c protoCmd
		switch op {
		case 0, 1: // set
			key := fuzzKeys[next()%len(fuzzKeys)]
			val := take(next() % (MaxValueSize + 8))
			c.req = "set " + key + " 0 0 " + strconv.Itoa(len(val)) + sfx + "\r\n" + val + "\r\n"
			c.want = m.set(key, val, noreply, true)
		case 2, 3: // multi-get
			verb := "get"
			if flags&2 != 0 {
				verb = "gets"
			}
			c.req = verb
			for n := next()%4 + 1; n > 0; n-- {
				c.req += " " + fuzzKeys[next()%len(fuzzKeys)]
			}
			c.req += "\r\n"
			c.want = m.get(c.req)
		case 4: // delete
			key := fuzzKeys[next()%len(fuzzKeys)]
			c.req = "delete " + key + sfx + "\r\n"
			c.want = m.delete(key, noreply)
		case 5: // set whose payload is not followed by "\r\n"
			key := fuzzKeys[next()%len(fuzzKeys)]
			val := take(next() % 16)
			c.req = "set " + key + " 0 0 " + strconv.Itoa(len(val)) + sfx + "\r\n" + val + "XY"
			c.want = m.set(key, val, noreply, false)
		case 6, 7: // fixed malformed lines and bad lengths
			c = fuzzArity[next()%len(fuzzArity)]
		case 8: // get with free-form keys
			c.req = "get " + line(next()%64) + "\r\n"
			c.want = m.get(c.req)
		case 9: // unknown verb with free-form arguments
			c.req = "x" + line(next()%64) + "\r\n"
			c.want = "ERROR\r\n"
		}
		cmds = append(cmds, c)
	}
	return cmds
}

// runPipelined sends the whole sequence and a closing quit in one write.
func runPipelined(t *testing.T, addr string, cmds []protoCmd) string {
	var req strings.Builder
	for _, c := range cmds {
		req.WriteString(c.req)
	}
	req.WriteString("quit\r\n")
	return exchange(t, addr, req.String())
}

// runSequential sends one command at a time, reading each reply (as long as
// the model predicts) before the next command goes out.
func runSequential(t *testing.T, addr string, cmds []protoCmd) string {
	t.Helper()
	conn := dialShort(t, addr)
	defer conn.Close()
	var got strings.Builder
	buf := make([]byte, 4096)
	for _, c := range cmds {
		if _, err := io.WriteString(conn, c.req); err != nil {
			t.Fatal(err)
		}
		for left := len(c.want); left > 0; {
			n, err := conn.Read(buf[:min(left, len(buf))])
			got.Write(buf[:n])
			left -= n
			if err != nil {
				return got.String() // the comparison reports the divergence
			}
		}
	}
	if _, err := io.WriteString(conn, "quit\r\n"); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(conn)
	got.Write(rest)
	return got.String()
}

// FuzzProtocol is the protocol differential: each input decodes into a
// command sequence that is served pipelined in one write and one command at
// a time, to the hash map store and to a 2-shard FPTreeC store. All four
// reply streams must equal the map model's, byte for byte.
func FuzzProtocol(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x05hello\x02\x00\x00\x00\x04\x00\x00\x02\x00\x00\x00"))
	hash, hashAddr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { hash.Close() })
	sharded, shardedAddr, err := Serve("127.0.0.1:0", newShardedFPTreeC(f, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { sharded.Close() })

	targets := []struct {
		name string
		srv  *Server
		addr string
	}{{"hashmap", hash, hashAddr}, {"fptreec-2shards", sharded, shardedAddr}}
	modes := []struct {
		name string
		run  func(*testing.T, string, []protoCmd) string
	}{{"pipelined", runPipelined}, {"sequential", runSequential}}

	f.Fuzz(func(t *testing.T, data []byte) {
		cmds := decodeProtocol(data)
		var first, firstName string
		for _, target := range targets {
			for _, mode := range modes {
				name := target.name + " " + mode.name
				got := mode.run(t, target.addr, cmds)
				// Start the next run from an empty store, as the model does.
				for _, k := range fuzzKeys {
					if _, err := target.srv.store.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
				}
				if firstName == "" {
					first, firstName = got, name
				} else if got != first {
					t.Fatalf("%s replies diverge from %s\nrequests: %q\n%s: %q\n%s: %q",
						name, firstName, cmds, name, got, firstName, first)
				}
			}
		}
		var want strings.Builder
		for _, c := range cmds {
			want.WriteString(c.want)
		}
		if first != want.String() {
			t.Fatalf("replies diverge from the map model\nrequests: %q\ngot:  %q\nwant: %q", cmds, first, want.String())
		}
	})
}
