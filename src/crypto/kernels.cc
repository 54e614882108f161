#include "crypto/kernels.hh"

namespace osh::crypto::kernels
{

namespace
{

Selection
select()
{
    Selection s{aesCtrPortable, "portable (T-table)",
                sha256CompressPortable, "portable (rolling schedule)"};
    if (AesCtrFn hw = aesCtrHardware()) {
        s.aesCtr = hw;
        s.aesCtrName = hw == aesCtrVaes() ? "hardware (VAES, AVX-512)"
                                          : "hardware (AES-NI)";
    }
    if (Sha256CompressFn hw = sha256CompressHardware()) {
        s.sha256Compress = hw;
        s.sha256CompressName = "hardware (SHA-NI)";
    }
    return s;
}

} // namespace

const Selection&
selected()
{
    static const Selection s = select();
    return s;
}

} // namespace osh::crypto::kernels
