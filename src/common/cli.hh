#pragma once

/**
 * @file
 * Shared command-line scanning for the alphapim_* tools and the
 * bench harness.
 *
 * Every binary accepts the same two spellings for a flag that takes
 * a value -- `--flag value` and `--flag=value` -- and the scanning
 * loop implementing that convention used to be duplicated across the
 * tools. CliArgs is that loop: it walks argv, splits an inline
 * `=value` off the flag token, and hands the value back from either
 * spelling. Flags that treat a bare spelling differently from an
 * inline list (e.g. `--check` vs `--check=race,dma`) branch on
 * hasInlineValue(). Numeric flags go through one checked parse each,
 * readUnsigned() for counts and seeds and readDouble() for scales,
 * rates and fractions, and name the range their consumer accepts, so
 * a malformed or out-of-range number is a usage error instead of a
 * wrapped, truncated or zero value reaching an assertion.
 */

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace alphapim
{

/** Cursor over argv implementing the `--flag value` /
 * `--flag=value` convention. Typical use:
 *
 *   CliArgs args(argc, argv, [](const std::string &) { usage(); });
 *   while (args.next()) {
 *       if (args.arg() == "--seed")
 *           args.readUnsigned(seed);
 *       else if (args.arg() == "--dpus")
 *           args.readUnsigned(dpus, 1);
 *       else if (args.isFlag())
 *           usage();
 *       else
 *           positional.push_back(args.arg());
 *   }
 */
class CliArgs
{
  public:
    /** Called when a flag needs a value but neither an inline
     * `=value` nor a following argv token exists, or when
     * readUnsigned() or readDouble() rejects the value. Receives the
     * flag name; expected not to return (the tools call their
     * [[noreturn]] usage()), but if it does, value() yields "" and
     * the read leaves its target unchanged. */
    using BadValueHandler =
        std::function<void(const std::string &flag)>;

    CliArgs(int argc, char **argv, BadValueHandler onBadValue)
        : argc_(argc), argv_(argv),
          on_bad_value_(std::move(onBadValue))
    {
    }

    /** Advance to the next argv token. False when exhausted. */
    bool next();

    /** The current token, with any inline `=value` stripped. */
    const std::string &arg() const { return arg_; }

    /** True when the current token starts with `--`. */
    bool isFlag() const { return arg_.rfind("--", 0) == 0; }

    /** True when the current token carried an inline `=value`. */
    bool hasInlineValue() const { return has_inline_; }

    /** The inline `=value` ("" when there was none). Does not
     * consume the next argv token. */
    const std::string &inlineValue() const { return inline_value_; }

    /** The flag's value: the inline `=value` when present, else the
     * next argv token (consumed). Invokes the missing-value handler
     * when neither exists. */
    const char *value();

    /** Read the flag's value into `out`: decimal digits only, and the
     * number must lie in [min, max], by default anything that fits
     * T. Anything else goes to the bad-value handler. */
    template <std::unsigned_integral T>
    void
    readUnsigned(T &out, std::type_identity_t<T> min = 0,
                 std::type_identity_t<T> max =
                     std::numeric_limits<T>::max())
    {
        std::uint64_t v = 0;
        if (parseUnsigned(value(), max, v) && v >= min)
            out = static_cast<T>(v);
        else if (on_bad_value_)
            on_bad_value_(arg_);
    }

    /** Read the flag's value into `out`: the whole token must be a
     * finite number for which `inRange` holds. Anything else goes to
     * the bad-value handler. */
    template <std::predicate<double> InRange>
    void
    readDouble(double &out, InRange inRange)
    {
        double v = 0.0;
        if (parseDouble(value(), v) && inRange(v))
            out = v;
        else if (on_bad_value_)
            on_bad_value_(arg_);
    }

    /** Parse `text` as a decimal number no larger than `max`: one or
     * more digits and nothing else (no sign, space or suffix). */
    static bool parseUnsigned(std::string_view text,
                              std::uint64_t max, std::uint64_t &out);

    /** Parse `text` as a finite decimal floating-point number ("0.5",
     * "-2", "1e-3"): the whole token, with no leading '+', space,
     * suffix, infinity or NaN. */
    static bool parseDouble(std::string_view text, double &out);

  private:
    int argc_;
    char **argv_;
    int i_ = 0;
    std::string arg_;
    std::string inline_value_;
    bool has_inline_ = false;
    BadValueHandler on_bad_value_;
};

} // namespace alphapim
