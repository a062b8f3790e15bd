package units

import "testing"

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0 B"},
		{128, "128 B"},
		{KiB, "1 KiB"},
		{64 * KiB, "64 KiB"},
		{512 * KiB, "512 KiB"},
		{8 * MiB, "8 MiB"},
		{3 * MiB / 2, "1.50 MiB"},
		{16 * GiB, "16 GiB"},
		{2 * TiB, "2 TiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBandwidth(t *testing.T) {
	bw := GBps(39.2)
	if got := bw.GBps(); got != 39.2 {
		t.Errorf("GBps() = %v, want 39.2", got)
	}
	if got := bw.String(); got != "39.2 GB/s" {
		t.Errorf("String() = %q", got)
	}
}

func TestDuration(t *testing.T) {
	cases := []struct {
		in   Duration
		want string
	}{
		{Duration(95), "95.00 ns"},
		{Duration(1500), "1.500 us"},
		{Duration(2.5e6), "2.500 ms"},
		{Duration(3e9), "3.000 s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Duration(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestRate(t *testing.T) {
	r := Rate(2227.2e9)
	if got := r.GFs(); got != 2227.2 {
		t.Errorf("GFs() = %v, want 2227.2", got)
	}
	if got := r.String(); got != "2227.2 GFLOP/s" {
		t.Errorf("String() = %q", got)
	}
}
