/**
 * @file
 * Network implementation.
 */

#include "nn/network.hh"

#include <algorithm>

#include "tensor/ops.hh"

namespace twoinone {

void
Network::add(LayerPtr layer)
{
    TWOINONE_ASSERT(layer != nullptr, "adding null layer");
    layers_.push_back(std::move(layer));
}

Layer &
Network::layer(size_t i)
{
    TWOINONE_ASSERT(i < layers_.size(), "layer index out of range");
    return *layers_[i];
}

Tensor
Network::forward(const Tensor &x, bool train)
{
    TWOINONE_ASSERT(!layers_.empty(), "forward through empty network");
    Tensor h = x;
    for (auto &l : layers_)
        h = l->forward(h, train);
    return h;
}

Tensor
Network::forwardQuantized(const Tensor &x)
{
    TWOINONE_ASSERT(!layers_.empty(), "forward through empty network");
    QuantAct h(x);
    // Quantize the network input so the stem conv joins the integer
    // path (at full precision the raw input flows through unchanged).
    if (activeBits_ > 0)
        h = inputQuant_->forwardQuantized(h);
    for (auto &l : layers_)
        h = l->forwardQuantized(h);
    return h.denseView();
}

Tensor
Network::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!layers_.empty(), "backward through empty network");
    Tensor g = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

std::vector<Parameter *>
Network::parameters()
{
    std::vector<Parameter *> out;
    for (auto &l : layers_)
        l->collectParameters(out);
    return out;
}

std::vector<WeightQuantizedLayer *>
Network::weightQuantizedLayers()
{
    std::vector<WeightQuantizedLayer *> out;
    for (auto &l : layers_)
        l->collectWeightQuantized(out);
    return out;
}

std::vector<ActQuant *>
Network::actQuantLayers()
{
    std::vector<ActQuant *> out;
    for (auto &l : layers_)
        l->collectActQuant(out);
    return out;
}

NetworkSpec
Network::spec() const
{
    NetworkSpec s;
    s.precisions = precisionSet_.bits();
    s.layers.reserve(layers_.size());
    for (const auto &l : layers_)
        s.layers.push_back(l->spec());
    return s;
}

void
Network::collectState(StateDict &out)
{
    for (size_t i = 0; i < layers_.size(); ++i)
        layers_[i]->collectState("layers." + std::to_string(i), out);
}

std::string
Network::checkState() const
{
    for (size_t i = 0; i < layers_.size(); ++i) {
        std::string err = layers_[i]->checkState(bnBanks());
        if (!err.empty())
            return "layers." + std::to_string(i) + ": " + err;
    }
    return std::string();
}

void
Network::zeroGrad()
{
    for (auto &l : layers_)
        l->zeroGrad();
}

size_t
Network::parameterCount()
{
    size_t n = 0;
    for (Parameter *p : parameters())
        n += p->value.size();
    return n;
}

int
Network::bnBanks() const
{
    return static_cast<int>(precisionSet_.size()) + 1;
}

void
Network::setPrecision(int bits)
{
    QuantState qs;
    if (bits == 0) {
        qs.weightBits = 0;
        qs.actBits = 0;
        qs.bnIndex = 0;
    } else {
        TWOINONE_ASSERT(precisionSet_.contains(bits), "precision ", bits,
                        " not in bound set ", precisionSet_.name());
        qs.weightBits = bits;
        qs.actBits = bits;
        qs.bnIndex = 1 + precisionSet_.indexOf(bits);
    }
    activeBits_ = bits;
    for (auto &l : layers_)
        l->setQuantState(qs);
    // The input quantizer floors at 16 bits regardless of how narrow
    // the candidate is: the stem conv still consumes integer codes
    // (the int16 kernels take up to 16-bit operands), while input
    // quantization noise stays well below the activation grids of
    // every candidate, preserving the documented int-vs-float forward
    // tolerance.
    QuantState qs_in = qs;
    qs_in.actBits = bits > 0 ? std::max(bits, 16) : 0;
    inputQuant_->setQuantState(qs_in);
}

std::vector<int>
Network::predict(const Tensor &x)
{
    return ops::argmaxRows(forward(x, /*train=*/false));
}

std::vector<int>
Network::predictQuantized(const Tensor &x)
{
    return ops::argmaxRows(forwardQuantized(x));
}

std::unique_ptr<serve::ExecutionPlan>
Network::compile(const PrecisionSet &precisions, serve::PlanMode mode,
                 const std::vector<int> &max_input_shape, bool warm_all)
{
    return serve::ExecutionPlan::compile(*this, precisions, mode,
                                         max_input_shape, warm_all);
}

} // namespace twoinone
