/**
 * @file
 * PreActBlock implementation with hand-written two-branch backward.
 */

#include "nn/residual.hh"

#include <algorithm>
#include <sstream>

#include "serve/execution_plan.hh"
#include "tensor/ops.hh"

namespace twoinone {

PreActBlock::PreActBlock(int in_channels, int out_channels, int stride,
                         int bn_banks, Rng &rng)
    : bn1_(in_channels, bn_banks),
      conv1_(in_channels, out_channels, 3, stride, 1, false, rng),
      bn2_(out_channels, bn_banks),
      conv2_(out_channels, out_channels, 3, 1, 1, false, rng),
      inChannels_(in_channels), outChannels_(out_channels), stride_(stride)
{
    if (stride != 1 || in_channels != out_channels) {
        convSc_ = std::make_unique<Conv2d>(in_channels, out_channels, 1,
                                           stride, 0, false, rng);
    }
}

Tensor
PreActBlock::forward(const Tensor &x, bool train)
{
    Tensor h = q1_.forward(relu1_.forward(bn1_.forward(x, train), train),
                           train);
    Tensor sc = convSc_ ? convSc_->forward(h, train) : x;
    Tensor y = conv1_.forward(h, train);
    y = q2_.forward(relu2_.forward(bn2_.forward(y, train), train), train);
    y = conv2_.forward(y, train);
    return ops::add(y, sc);
}

namespace {

/**
 * Emit q(relu(bn(top))), the operand of convs with a @p pad border
 * (the widest padding among them). Fused quantized plans run it as
 * one producer of channel-last codes; unfused ones run the three
 * layers' own steps, q writing the same channel-last codes. Float
 * plans end in q's float fake-quant step, after one fused SBN+ReLU
 * pass when fusing.
 */
void
emitConvOperand(serve::PlanBuilder &b, SwitchableBatchNorm2d &bn,
                ReLU &relu, ActQuant &q, int pad)
{
    const bool quantized = b.mode() == serve::PlanMode::Quantized;
    if (b.fuse() && quantized) {
        bn.emitFusedQuantProducer(b, q, pad);
        return;
    }
    if (b.fuse()) {
        bn.emitFusedBnRelu(b);
    } else {
        bn.emitPlanSteps(b);
        relu.emitPlanSteps(b);
    }
    if (quantized)
        q.emitChannelLastPlanStep(b, pad);
    else
        q.emitPlanSteps(b);
}

} // namespace

void
PreActBlock::emitPlanSteps(serve::PlanBuilder &b)
{
    // Mirrors forward(): BN / ReLU / the residual add stay in float;
    // both quantized values feed only convs, so they are written as
    // the convs' channel-last operand codes.
    int x = b.top();

    // h = q1(relu1(bn1(x))), read by conv1 and the projection.
    int pad = conv1_.padding();
    if (convSc_)
        pad = std::max(pad, convSc_->padding());
    emitConvOperand(b, bn1_, relu1_, q1_, pad);
    int h = b.top();

    // Shortcut branch: projection conv from h, or the identity x.
    int sc;
    if (convSc_) {
        convSc_->emitPlanSteps(b);
        sc = b.top();
        b.setTop(h);
    } else {
        sc = x;
    }

    // Main branch: conv2(q2(relu2(bn2(conv1(h))))).
    conv1_.emitPlanSteps(b);
    emitConvOperand(b, bn2_, relu2_, q2_, conv2_.padding());
    conv2_.emitPlanSteps(b);
    int y = b.top();

    int out = b.newValue();
    b.addStep("residual join", [y, sc, out](serve::ExecutionPlan &p) {
        serve::Value &vy = p.value(y);
        serve::Value &vsc = p.value(sc);
        serve::Value &vo = p.value(out);
        vo.reset();
        ops::addInto(vy.denseView(), vsc.denseView(), vo.dense);
        vo.denseReady = true;
    });
    b.setTop(out);
}

Tensor
PreActBlock::backward(const Tensor &grad_out)
{
    // Main branch: conv2 <- q2 <- relu2 <- bn2 <- conv1.
    Tensor g = conv2_.backward(grad_out);
    g = bn2_.backward(relu2_.backward(q2_.backward(g)));
    Tensor gh = conv1_.backward(g);

    // Shortcut branch joins at h (projection) or at x (identity).
    if (convSc_) {
        Tensor gh_sc = convSc_->backward(grad_out);
        ops::addInPlace(gh, gh_sc);
        return bn1_.backward(relu1_.backward(q1_.backward(gh)));
    }
    Tensor gx = bn1_.backward(relu1_.backward(q1_.backward(gh)));
    ops::addInPlace(gx, grad_out);
    return gx;
}

void
PreActBlock::collectParameters(std::vector<Parameter *> &out)
{
    bn1_.collectParameters(out);
    conv1_.collectParameters(out);
    bn2_.collectParameters(out);
    conv2_.collectParameters(out);
    if (convSc_)
        convSc_->collectParameters(out);
}

void
PreActBlock::collectWeightQuantized(std::vector<WeightQuantizedLayer *> &out)
{
    conv1_.collectWeightQuantized(out);
    conv2_.collectWeightQuantized(out);
    if (convSc_)
        convSc_->collectWeightQuantized(out);
}

void
PreActBlock::collectActQuant(std::vector<ActQuant *> &out)
{
    q1_.collectActQuant(out);
    q2_.collectActQuant(out);
}

void
PreActBlock::setQuantState(const QuantState &qs)
{
    Layer::setQuantState(qs);
    bn1_.setQuantState(qs);
    relu1_.setQuantState(qs);
    q1_.setQuantState(qs);
    conv1_.setQuantState(qs);
    bn2_.setQuantState(qs);
    relu2_.setQuantState(qs);
    q2_.setQuantState(qs);
    conv2_.setQuantState(qs);
    if (convSc_)
        convSc_->setQuantState(qs);
}

std::string
PreActBlock::describe() const
{
    std::ostringstream oss;
    oss << "PreActBlock(" << inChannels_ << "->" << outChannels_
        << ", s=" << stride_ << (convSc_ ? ", proj" : "") << ")";
    return oss.str();
}

LayerSpec
PreActBlock::spec() const
{
    // The projection shortcut is derived (stride/channel change), so
    // the constructor arguments fully determine the block.
    return {"preact",
            {inChannels_, outChannels_, stride_, bn1_.numBanks()}};
}

void
PreActBlock::collectState(const std::string &prefix, StateDict &out)
{
    bn1_.collectState(prefix + ".bn1", out);
    q1_.collectState(prefix + ".q1", out);
    conv1_.collectState(prefix + ".conv1", out);
    bn2_.collectState(prefix + ".bn2", out);
    q2_.collectState(prefix + ".q2", out);
    conv2_.collectState(prefix + ".conv2", out);
    if (convSc_)
        convSc_->collectState(prefix + ".conv_sc", out);
}

std::string
PreActBlock::checkState(int required_banks) const
{
    for (const Layer *l :
         {static_cast<const Layer *>(&bn1_),
          static_cast<const Layer *>(&q1_),
          static_cast<const Layer *>(&bn2_),
          static_cast<const Layer *>(&q2_)}) {
        std::string err = l->checkState(required_banks);
        if (!err.empty())
            return err;
    }
    return std::string();
}

} // namespace twoinone
