#include "serve/batch.hh"

#include <condition_variable>
#include <mutex>
#include <string>

namespace mmgpu::serve
{

BatchResult
runBatch(SimService &service, std::istream &in, std::ostream &out)
{
    BatchResult result;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;

        std::mutex mutex;
        std::condition_variable cv;
        bool ready = false;
        Response response;
        service.submitLine(line, [&](const Response &r) {
            std::lock_guard<std::mutex> lock(mutex);
            response = r;
            ready = true;
            cv.notify_one();
        });
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return ready; });
        }

        ++result.requests;
        if (response.status != ResponseStatus::Ok)
            ++result.failures;
        out << response.encode() << "\n";
    }
    return result;
}

} // namespace mmgpu::serve
