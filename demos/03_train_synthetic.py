"""Train the reduced model on synthetic scenes and report metrics.

The desk-scale overfit experiment: 8 images at 64x64, 300 optimizer steps,
reaching ~99% pixel accuracy and ~0.95 mIoU in about a minute on a laptop
CPU.  The same run is scripted through the CLI as
``armformer synth`` / ``train`` / ``eval``.

Run:  python demos/03_train_synthetic.py
"""

from armformer.data import CLASS_NAMES, synth_dataset
from armformer.metrics import ConfusionMatrix, compute_metrics, format_report
from armformer.model import ArmFormer, ModelConfig, TrainSchedule, fit
from armformer.tensor import Tensor

data = synth_dataset(seed=0, count=8, size=64)
model = ArmFormer(ModelConfig.reduced(input_size=64, seed=0))
print(f"model: {model.num_parameters():,} parameters")

sched = TrainSchedule(steps=300, batch_size=8, lr=1e-3, weight_decay=0.01, seed=0)
history = fit(model, data, sched,
              log_fn=lambda h: h.step % 50 == 0 and print(
                  f"  step {h.step:4d}  loss {h.loss:.4f}"))

cm = ConfusionMatrix(6)
for img, lab in data:
    cm.update(model.predict(Tensor(img[None]))[0], lab)
report = compute_metrics(cm, include_background=True, class_names=CLASS_NAMES)

print(f"\nfinal loss: {history[-1].loss:.4f}")
print(f"pixel accuracy: {cm.pixel_accuracy():.4f}\n")
print(format_report(report))
