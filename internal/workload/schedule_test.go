package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestScheduleValidate(t *testing.T) {
	good := Schedule{{0, 60, 5}, {60, 120, 25}, {120, 180, 0}, {180, 240, 5}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		s    Schedule
		want string
	}{
		{"empty", Schedule{}, "empty schedule"},
		{"late start", Schedule{{1, 2, 5}}, "must start at 0"},
		{"NaN bound", Schedule{{0, math.NaN(), 5}}, "must be finite"},
		{"Inf bound", Schedule{{0, math.Inf(1), 5}}, "must be finite"},
		{"zero width", Schedule{{0, 0, 5}}, "End must exceed Start"},
		{"inverted", Schedule{{0, 10, 5}, {10, 5, 5}}, "End must exceed Start"},
		{"gap", Schedule{{0, 10, 5}, {20, 30, 5}}, "must be contiguous"},
		{"overlap", Schedule{{0, 10, 5}, {5, 30, 5}}, "must be contiguous"},
		{"negative rate", Schedule{{0, 10, -1}, {10, 20, 5}}, "finite and non-negative"},
		{"NaN rate", Schedule{{0, 10, math.NaN()}, {10, 20, 5}}, "finite and non-negative"},
		{"Inf rate", Schedule{{0, 10, math.Inf(1)}, {10, 20, 5}}, "finite and non-negative"},
		{"zero final", Schedule{{0, 10, 5}, {10, 20, 0}}, "must be positive"},
	} {
		err := tc.s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestCanonicalSchedule(t *testing.T) {
	// No schedule: the pair passes through.
	if s, r := CanonicalSchedule(nil, 2.5); s != nil || r != 2.5 {
		t.Errorf("nil schedule should pass through, got (%v, %g)", s, r)
	}
	// A constant schedule collapses to its rate.
	if s, r := CanonicalSchedule(Schedule{{0, 60, 5}}, 0); s != nil || r != 5 {
		t.Errorf("single segment should collapse to rate 5, got (%v, %g)", s, r)
	}
	if s, r := CanonicalSchedule(Schedule{{0, 60, 5}, {60, 120, 5}, {120, 130, 5}}, 0); s != nil || r != 5 {
		t.Errorf("constant multi-segment should collapse to rate 5, got (%v, %g)", s, r)
	}
	// Adjacent equal-rate segments merge without collapsing the schedule.
	s, r := CanonicalSchedule(Schedule{{0, 30, 5}, {30, 60, 5}, {60, 120, 25}}, 0)
	want := Schedule{{0, 60, 5}, {60, 120, 25}}
	if !reflect.DeepEqual(s, want) || r != 0 {
		t.Errorf("merge: got (%v, %g), want (%v, 0)", s, r, want)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("canonical form should revalidate clean: %v", err)
	}
	// A genuinely piecewise schedule is untouched, and not copied.
	in := Schedule{{0, 60, 5}, {60, 120, 25}}
	if s, _ := CanonicalSchedule(in, 0); !reflect.DeepEqual(s, in) || &s[0] != &in[0] {
		t.Errorf("piecewise schedule changed or copied: %v", s)
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	for _, tc := range []string{
		"0-60:5",
		"0-60:5,60-120:25",
		"0-60:5,60-90:0,90-120:25",
		"0-0.5:2.25,0.5-3:10",
	} {
		s, err := ParseSchedule(tc)
		if err != nil {
			t.Fatalf("parse %q: %v", tc, err)
		}
		got := FormatSchedule(s)
		if got != tc {
			t.Errorf("format(parse(%q)) = %q", tc, got)
		}
		back, err := ParseSchedule(got)
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Errorf("parse(format) not identity for %q: %v, %v", tc, back, err)
		}
	}
	if FormatSchedule(nil) != "" {
		t.Error("empty schedule should render empty")
	}
	// Whitespace and empty tokens are tolerated.
	s, err := ParseSchedule(" 0-60:5 , 60-120:25 ,")
	if err != nil || len(s) != 2 {
		t.Errorf("whitespace parse: %v, %v", s, err)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", "empty schedule"},
		{"0-60", "want start-end:rate"},
		{"60:5", "want start-end:rate"},
		{"x-60:5", "bad start"},
		{"0-y:5", "bad end"},
		{"0-60:z", "bad rate"},
		{"10-60:5", "must start at 0"},
		{"0-60:5,70-80:5", "must be contiguous"},
		{"0-60:0", "must be positive"},
	} {
		if _, err := ParseSchedule(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parse %q: want error containing %q, got %v", tc.in, tc.want, err)
		}
	}
}

// FormatSchedule must never emit scientific notation: an exponent's '-'
// would collide with the span separator and break the round trip.
func TestFormatScheduleAvoidsScientificNotation(t *testing.T) {
	s := Schedule{{0, 1e-6, 0.0000025}, {1e-6, 2e21, 5}}
	tok := FormatSchedule(s)
	if strings.ContainsAny(tok, "eE") {
		t.Fatalf("scientific notation in %q", tok)
	}
	back, err := ParseSchedule(tok)
	if err != nil || !reflect.DeepEqual(back, s) {
		t.Errorf("round trip through %q: %v, %v", tok, back, err)
	}
}

// FuzzScheduleRoundTrip pins the parse→format→parse identity: any string
// ParseSchedule accepts must render to a token that parses back to the
// same schedule and the same rendering.
func FuzzScheduleRoundTrip(f *testing.F) {
	f.Add("0-60:5")
	f.Add("0-60:5,60-120:25")
	f.Add("0-60:5,60-90:0,90-120:25")
	f.Add("0-0.5:2.25,0.5-3:10")
	f.Add(" 0-1:0.125 ,1-2:7,")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSchedule(in)
		if err != nil {
			t.Skip()
		}
		tok := FormatSchedule(s)
		back, err := ParseSchedule(tok)
		if err != nil {
			t.Fatalf("rendering %q of accepted input %q does not parse: %v", tok, in, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed the schedule: %v vs %v (token %q)", back, s, tok)
		}
		if tok2 := FormatSchedule(back); tok2 != tok {
			t.Fatalf("rendering unstable: %q vs %q", tok2, tok)
		}
	})
}
