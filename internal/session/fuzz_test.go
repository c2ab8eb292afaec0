package session

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
)

func FuzzParseSDP(f *testing.F) {
	valid, _ := sampleDesc().MarshalSDP()
	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte("v=0\no=- 1 1 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n"))
	f.Add([]byte("v=0\r\nb=AS:12\r\na=tool:x\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseSDP(data) // must not panic
		if err != nil {
			return
		}
		// Anything that parses must validate and re-marshal.
		if err := d.Validate(); err != nil {
			t.Fatalf("parsed description fails validation: %v", err)
		}
		out, err := d.MarshalSDP()
		if err != nil {
			t.Fatalf("parsed description fails to marshal: %v", err)
		}
		// And the re-marshalled form must parse to the same identity.
		d2, err := ParseSDP(out)
		if err != nil {
			t.Fatalf("re-marshalled SDP fails to parse: %v\n%s", err, out)
		}
		if d2.Key() != d.Key() || d2.Version != d.Version || d2.Group != d.Group {
			t.Fatalf("identity drifted: %s/%d vs %s/%d", d.Key(), d.Version, d2.Key(), d2.Version)
		}
	})
}

// FuzzKey pins Key to its fmt definition. The address comes from raw
// bytes: 4 make an IPv4 address, 16 an IPv6 one (4in6 included) that
// takes the zone, anything else the invalid zero Addr.
func FuzzKey(f *testing.F) {
	f.Add([]byte{10, 0, 0, 1}, "", uint64(1))
	f.Add([]byte{255, 255, 255, 255}, "", uint64(0))
	f.Add(netip.MustParseAddr("2001:db8::1").AsSlice(), "", uint64(math.MaxUint64))
	f.Add(netip.MustParseAddr("fe80::1").AsSlice(), "eth0", uint64(42))
	f.Add(netip.MustParseAddr("::ffff:192.0.2.7").AsSlice(), "", uint64(7))
	f.Add([]byte{}, "", uint64(0))
	f.Add([]byte{}, "", uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, ip []byte, zone string, id uint64) {
		var d Description
		switch len(ip) {
		case 4:
			d.Origin = netip.AddrFrom4([4]byte(ip))
		case 16:
			d.Origin = netip.AddrFrom16([16]byte(ip)).WithZone(zone)
		}
		d.ID = id
		if got, want := d.Key(), fmt.Sprintf("%s/%d", d.Origin, d.ID); got != want {
			t.Fatalf("Key() = %q, want %q", got, want)
		}
	})
}
