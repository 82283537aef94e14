#include "obs/thread_ctx.hpp"

namespace icilk::obs {

namespace {
constinit thread_local ThreadCtx tls_ctx;
}  // namespace

__attribute__((noipa)) ThreadCtx& thread_ctx() noexcept { return tls_ctx; }

}  // namespace icilk::obs
