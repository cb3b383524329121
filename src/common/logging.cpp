#include "common/logging.h"

#include <cstdlib>
#include <iostream>
#include <mutex>
#include <stdexcept>

namespace pimsim {

namespace {
bool quiet = false;
/** Programs embedding the library may log from several threads;
 *  serialise emission so lines stay whole. */
std::mutex logMutex;
} // namespace

void
setQuiet(bool q)
{
    quiet = q;
}

bool
isQuiet()
{
    return quiet;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << " @ " << file << ":" << line
              << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!quiet) {
        std::lock_guard<std::mutex> lock(logMutex);
        std::cerr << "warn: " << msg << std::endl;
    }
}

void
informImpl(const std::string &msg)
{
    if (!quiet) {
        std::lock_guard<std::mutex> lock(logMutex);
        std::cout << "info: " << msg << std::endl;
    }
}

} // namespace pimsim
