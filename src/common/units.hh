/**
 * @file
 * Strongly-named physical quantities used by the hardware models.
 *
 * All values are stored in SI base units (seconds, joules, watts, square
 * metres) as doubles; the named constructors and accessors keep the many
 * magnitudes in this codebase (ns, fJ, mW, um^2) from being confused.
 */

#ifndef RAPIDNN_COMMON_UNITS_HH
#define RAPIDNN_COMMON_UNITS_HH

#include <compare>
#include <cstdint>

namespace rapidnn {

/** A span of simulated time, stored in seconds. */
class Time
{
  public:
    constexpr Time() = default;

    static constexpr Time seconds(double s) { return Time(s); }
    static constexpr Time milliseconds(double ms) { return Time(ms * 1e-3); }
    static constexpr Time microseconds(double us) { return Time(us * 1e-6); }
    static constexpr Time nanoseconds(double ns) { return Time(ns * 1e-9); }
    static constexpr Time picoseconds(double ps) { return Time(ps * 1e-12); }

    constexpr double sec() const { return _s; }
    constexpr double ms() const { return _s * 1e3; }
    constexpr double us() const { return _s * 1e6; }
    constexpr double ns() const { return _s * 1e9; }

    constexpr Time operator+(Time o) const { return Time(_s + o._s); }
    constexpr Time operator-(Time o) const { return Time(_s - o._s); }
    constexpr Time operator*(double k) const { return Time(_s * k); }
    constexpr double operator/(Time o) const { return _s / o._s; }
    Time &operator+=(Time o) { _s += o._s; return *this; }
    constexpr auto operator<=>(const Time &) const = default;

  private:
    explicit constexpr Time(double s) : _s(s) {}
    double _s = 0.0;
};

/** An amount of energy, stored in joules. */
class Energy
{
  public:
    constexpr Energy() = default;

    static constexpr Energy joules(double j) { return Energy(j); }
    static constexpr Energy millijoules(double mj) { return Energy(mj*1e-3); }
    static constexpr Energy microjoules(double uj) { return Energy(uj*1e-6); }
    static constexpr Energy nanojoules(double nj) { return Energy(nj*1e-9); }
    static constexpr Energy picojoules(double pj) { return Energy(pj*1e-12); }
    static constexpr Energy femtojoules(double fj) { return Energy(fj*1e-15);}

    constexpr double j() const { return _j; }
    constexpr double mj() const { return _j * 1e3; }
    constexpr double uj() const { return _j * 1e6; }
    constexpr double nj() const { return _j * 1e9; }
    constexpr double pj() const { return _j * 1e12; }
    constexpr double fj() const { return _j * 1e15; }

    constexpr Energy operator+(Energy o) const { return Energy(_j + o._j); }
    constexpr Energy operator-(Energy o) const { return Energy(_j - o._j); }
    constexpr Energy operator*(double k) const { return Energy(_j * k); }
    constexpr double operator/(Energy o) const { return _j / o._j; }
    Energy &operator+=(Energy o) { _j += o._j; return *this; }
    constexpr auto operator<=>(const Energy &) const = default;

  private:
    explicit constexpr Energy(double j) : _j(j) {}
    double _j = 0.0;
};

/** A power draw, stored in watts. */
class Power
{
  public:
    constexpr Power() = default;

    static constexpr Power watts(double w) { return Power(w); }
    static constexpr Power milliwatts(double mw) { return Power(mw * 1e-3); }
    static constexpr Power microwatts(double uw) { return Power(uw * 1e-6); }

    constexpr double w() const { return _w; }
    constexpr double mw() const { return _w * 1e3; }
    constexpr double uw() const { return _w * 1e6; }

    constexpr Power operator+(Power o) const { return Power(_w + o._w); }
    constexpr Power operator*(double k) const { return Power(_w * k); }
    constexpr double operator/(Power o) const { return _w / o._w; }
    Power &operator+=(Power o) { _w += o._w; return *this; }
    constexpr auto operator<=>(const Power &) const = default;

    /** Energy dissipated by drawing this power for a span of time. */
    constexpr Energy
    over(Time t) const
    {
        return Energy::joules(_w * t.sec());
    }

  private:
    explicit constexpr Power(double w) : _w(w) {}
    double _w = 0.0;
};

/** A silicon area, stored in square metres. */
class Area
{
  public:
    constexpr Area() = default;

    static constexpr Area squareMillimeters(double mm2)
    {
        return Area(mm2 * 1e-6);
    }
    static constexpr Area squareMicrometers(double um2)
    {
        return Area(um2 * 1e-12);
    }

    constexpr double mm2() const { return _m2 * 1e6; }
    constexpr double um2() const { return _m2 * 1e12; }

    constexpr Area operator+(Area o) const { return Area(_m2 + o._m2); }
    constexpr Area operator*(double k) const { return Area(_m2 * k); }
    constexpr double operator/(Area o) const { return _m2 / o._m2; }
    Area &operator+=(Area o) { _m2 += o._m2; return *this; }
    constexpr auto operator<=>(const Area &) const = default;

  private:
    explicit constexpr Area(double m2) : _m2(m2) {}
    double _m2 = 0.0;
};

/** Energy-delay product helper. */
constexpr double
edp(Energy e, Time t)
{
    return e.j() * t.sec();
}

} // namespace rapidnn

#endif // RAPIDNN_COMMON_UNITS_HH
