#include "cli.hh"

#include <charconv>
#include <cmath>

namespace alphapim
{

bool
CliArgs::next()
{
    ++i_;
    if (i_ >= argc_)
        return false;
    arg_ = argv_[i_];
    inline_value_.clear();
    has_inline_ = false;
    if (const std::size_t eq = arg_.find('=');
        eq != std::string::npos && arg_.rfind("--", 0) == 0) {
        inline_value_ = arg_.substr(eq + 1);
        arg_.resize(eq);
        has_inline_ = true;
    }
    return true;
}

const char *
CliArgs::value()
{
    if (has_inline_)
        return inline_value_.c_str();
    if (i_ + 1 >= argc_) {
        if (on_bad_value_)
            on_bad_value_(arg_);
        return "";
    }
    return argv_[++i_];
}

bool
CliArgs::parseUnsigned(std::string_view text, std::uint64_t max,
                       std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    std::uint64_t v = 0;
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end || v > max)
        return false;
    out = v;
    return true;
}

bool
CliArgs::parseDouble(std::string_view text, double &out)
{
    const char *end = text.data() + text.size();
    double v = 0.0;
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace alphapim
