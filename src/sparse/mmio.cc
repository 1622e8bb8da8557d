#include "mmio.hh"

#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.hh"

namespace alphapim::sparse
{

namespace
{

/** Lower-case a token in place for case-insensitive header matching. */
std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

} // namespace

CooMatrix<float>
readMatrixMarket(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line))
        fatal("matrix market stream is empty");

    std::istringstream header(line);
    std::string banner, object, format, field, symmetry;
    header >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket")
        fatal("missing %%%%MatrixMarket banner");
    object = toLower(object);
    format = toLower(format);
    field = toLower(field);
    symmetry = toLower(symmetry);
    if (object != "matrix" || format != "coordinate")
        fatal("only 'matrix coordinate' files are supported");
    const bool pattern = field == "pattern";
    if (!pattern && field != "real" && field != "integer")
        fatal("unsupported field type '%s'", field.c_str());
    const bool symmetric = symmetry == "symmetric";
    if (!symmetric && symmetry != "general")
        fatal("unsupported symmetry '%s'", symmetry.c_str());

    // Skip comments to the size line.
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '%')
            break;
    }
    std::istringstream size_line(line);
    std::uint64_t rows = 0, cols = 0, entries = 0;
    size_line >> rows >> cols >> entries;
    if (rows == 0 || cols == 0)
        fatal("bad matrix market size line");
    if (rows >= invalidNode || cols >= invalidNode)
        fatal("matrix market size %llu x %llu exceeds the %u-node limit",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(cols), invalidNode - 1);

    CooMatrix<float> coo(static_cast<NodeId>(rows),
                         static_cast<NodeId>(cols));
    coo.reserve(symmetric ? entries * 2 : entries);
    for (std::uint64_t k = 0; k < entries; ++k) {
        if (!std::getline(in, line))
            fatal("matrix market stream truncated at entry %llu",
                  static_cast<unsigned long long>(k));
        std::istringstream entry(line);
        std::uint64_t r = 0, c = 0;
        double v = 1.0;
        entry >> r >> c;
        if (!pattern)
            entry >> v;
        if (r == 0 || c == 0 || r > rows || c > cols)
            fatal("matrix market entry out of range at line %llu",
                  static_cast<unsigned long long>(k));
        coo.addEntry(static_cast<NodeId>(r - 1),
                     static_cast<NodeId>(c - 1),
                     static_cast<float>(v));
        if (symmetric && r != c) {
            coo.addEntry(static_cast<NodeId>(c - 1),
                         static_cast<NodeId>(r - 1),
                         static_cast<float>(v));
        }
    }
    coo.coalesce();
    return coo;
}

CooMatrix<float>
readMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open matrix market file '%s'", path.c_str());
    return readMatrixMarket(in);
}

void
writeMatrixMarket(const CooMatrix<float> &matrix, std::ostream &out)
{
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << matrix.numRows() << " " << matrix.numCols() << " "
        << matrix.nnz() << "\n";
    for (std::size_t k = 0; k < matrix.nnz(); ++k) {
        out << (matrix.rowAt(k) + 1) << " " << (matrix.colAt(k) + 1)
            << " " << matrix.valueAt(k) << "\n";
    }
}

void
writeMatrixMarketFile(const CooMatrix<float> &matrix,
                      const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot create matrix market file '%s'", path.c_str());
    writeMatrixMarket(matrix, out);
}

} // namespace alphapim::sparse
